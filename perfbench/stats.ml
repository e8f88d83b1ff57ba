(* The benchmark's own arithmetic, kept free of the compiler so the
   tests in test_stats.ml can pin it. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

type tail = { pct : int; value : float; beyond : int; samples : int }

(* Nearest rank: the p-th percentile is the ceil(p n / 100)-th smallest
   sample, and the samples beyond it are the ones ranked above. The
   tail is the highest whole percentile that still has at least
   [min_beyond] samples beyond it, so its rank is fixed by the sample
   count alone. *)
let tail ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec go p =
    if p < 1 then None
    else
      let rank = ((p * n) + 99) / 100 in
      if rank >= 1 && n - rank >= min_beyond then
        Some { pct = p; value = a.(rank - 1); beyond = n - rank; samples = n }
      else go (p - 1)
  in
  go 99

(* Geometric mean of per-op ratios; a failed op ([None]) counts as 1.0,
   so failing never looks like an improvement. *)
let geomean ratios =
  match ratios with
  | [] -> 1.
  | _ ->
    let logs =
      List.map (fun r -> log (Option.value r ~default:1.)) ratios
    in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* Stratified Zipf: rank i (1-based) gets block * i^-s / H of the block,
   rounded by largest remainder so the counts sum to [block] exactly
   and every block carries the same multiset. Ties go to the lower
   rank. *)
let zipf_counts ~s ~n ~block =
  if n < 1 || block < 0 then invalid_arg "Stats.zipf_counts";
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> float_of_int block *. x /. total) w in
  let counts = Array.map truncate exact in
  let given = Array.fold_left ( + ) 0 counts in
  let order = List.init n Fun.id in
  let by_remainder =
    List.stable_sort
      (fun i j ->
        compare
          (exact.(j) -. float_of_int counts.(j))
          (exact.(i) -. float_of_int counts.(i)))
      order
  in
  List.iteri
    (fun k i -> if k < block - given then counts.(i) <- counts.(i) + 1)
    by_remainder;
  counts

(* Fisher-Yates over a seeded stream. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
