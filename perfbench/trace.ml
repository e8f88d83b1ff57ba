(* In-memory spans recorded by the benchmark around its calls into the
   program's layers. Nothing inside the program is instrumented. *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  name : string;
  op : int;
  t0 : float;
  t1 : float;
}

(* Off in untraced runs: [span] then only calls its function. *)
let enabled = ref false

let lock = Mutex.create ()
let recorded : span list ref = ref []
let next = Atomic.make 0

(* The open span and op of the calling domain; pool workers inherit
   them explicitly through [adopt]. *)
let current = Domain.DLS.new_key (fun () -> (-1, -1))

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let span name f =
  if not !enabled then f ()
  else
  let parent, op = Domain.DLS.get current in
  let id = Atomic.fetch_and_add next 1 in
  Domain.DLS.set current (id, op);
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current (parent, op);
      record { id; parent; name; op; t0; t1 })

(* Run [f] as op [op]: its root span is named "op". *)
let op op f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (-1, op);
  Fun.protect (fun () -> span "op" f) ~finally:(fun () ->
      Domain.DLS.set current saved)

(* The caller's position, to hand to work running on another domain. *)
let here () = Domain.DLS.get current

let adopt (parent, op) f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (parent, op);
  Fun.protect f ~finally:(fun () -> Domain.DLS.set current saved)

let take () =
  Mutex.lock lock;
  let s = List.rev !recorded in
  recorded := [];
  Mutex.unlock lock;
  s

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest ->
      (match cur with
       | None -> go acc (Some (a, b)) rest
       | Some (ca, cb) ->
         if a <= cb then go acc (Some (ca, Float.max cb b)) rest
         else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

(* Self time of every span of one op, as a partition of the root's
   duration. A span's self time is its duration minus the part its
   children cover. Children that overlap (the tasks of a pool section
   running on several domains) sum to more than they cover, so their
   whole subtrees are scaled by covered/summed: the totals then add up
   to the root's wall time exactly. Returns (name, seconds) per span;
   the root comes back under the name "op". *)
let self_times spans =
  let children = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let rec walk w s acc =
    let kids = Hashtbl.find_all children s.id in
    let dur = s.t1 -. s.t0 in
    let cov = covered ~lo:s.t0 ~hi:s.t1 (List.map (fun k -> (k.t0, k.t1)) kids) in
    let summed = List.fold_left (fun a k -> a +. (k.t1 -. k.t0)) 0. kids in
    let kw = if summed > 0. then w *. cov /. summed else w in
    let acc = (s.name, (dur -. cov) *. w) :: acc in
    List.fold_left (fun acc k -> walk kw k acc) acc kids
  in
  List.fold_left
    (fun acc s -> if s.parent = -1 then walk 1. s acc else acc)
    [] spans
