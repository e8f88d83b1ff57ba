(* The repository's benchmark. One process runs one workload:

     table1  the paper's Table 1 (12 circuits x 6 strategies), built in
             process, verified Auto up to 13 qubits and Static above;
     large   the 64-128-qubit corpus (5 circuits x 5 strategies) arriving
             as QASM-3 text, verified Static;
     serve   a `caqr_cli serve` daemon on TCP loopback driven closed-loop
             over 2 connections by keyed Zipf traffic plus fresh circuits.

   An untraced run (--trace 0) reports the end-to-end metrics; a traced
   run (--trace 1) replays each op through the layers' public calls with
   spans around them and reports the per-layer split. The last stdout
   line is the JSON result; everything before it is for people. See
   README.md for the metric definitions and the layer map. *)

open Perfbench_core
module P = Caqr.Pipeline
module C = Quantum.Circuit
module J = Serve.Json

let now = Unix.gettimeofday
let jobs = Exec.Pool.default_jobs ()
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Device construction is set-up work, timed outside any op. *)
let device_s = ref 0. and device_calls = ref 0

let device_for n =
  let t0 = now () in
  let d = Hardware.Device.heavy_hex_for n in
  device_s := !device_s +. (now () -. t0);
  incr device_calls;
  d

let device_ms () = if !device_calls = 0 then 0. else !device_s *. 1000. /. float_of_int !device_calls

(* ---- arguments ---- *)

let workloads = [ "table1"; "large"; "serve" ]

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: bench.exe --workload table1|large|serve --seed N --seconds S \
     --trace 0|1\n       bench.exe --profile table1|large|serve";
  exit 2

let parse_args () =
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> go { acc with seed = int_of_string n } rest
    | "--seconds" :: n :: rest -> go { acc with seconds = int_of_string n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | "--profile" :: w :: rest ->
      (* A fixed-seed, untraced run for attaching a profiler, e.g. with
         OCAML_RUNTIME_EVENTS_START=1 set. *)
      go { acc with workload = w; seed = 0; trace = false } rest
    | [] -> acc
    | _ -> usage ()
  in
  let a =
    try
      go { workload = ""; seed = 0; seconds = 10; trace = false }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if not (List.mem a.workload workloads) || a.seconds < 1 || a.seed < 0 then
    usage ();
  a

(* ---- results ---- *)

let metrics : (string * float * string) list ref = ref []
let add name value unit = metrics := (name, value, unit) :: !metrics
let violations : string list ref = ref []
let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt

(* A fixed CPU loop, timed before and after the run: a host that slowed
   down during the run shows as a larger second figure. *)
let calibrate () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 30_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.

let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect find ~finally:(fun () -> close_in ic)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let finish ~args ~attempted ~ok ~calib_before ~measured_s =
  let calib_after = calibrate () in
  let commit = Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown" in
  say
    "stamp {\"nproc\":%d,\"ocaml\":%S,\"jobs\":%d,\"engine\":%S,\"commit\":%S,\
     \"workload\":%S,\"seed\":%d,\"seconds\":%d,\"measured_s\":%.3f,\
     \"trace\":%b,\"calibration_ms\":{\"before\":%.2f,\"after\":%.2f}}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version jobs Caqr.Version.engine commit args.workload args.seed
    args.seconds measured_s args.trace calib_before calib_after;
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> say "metric %s/%s = %s %s" args.workload n (json_float v) u) ms;
  let correct = !violations = [] in
  List.iter (fun v -> say "VIOLATION: %s" v) (List.rev !violations);
  say "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted (attempted - ok)
    (String.concat ","
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_float v) u)
          ms));
  exit (if correct then 0 else 1)

let add_latency_metrics ~ok ~window durations =
  add "ops_per_s" (float_of_int ok /. window) "1/s";
  add "op_ms_p50" (Stats.median durations *. 1000.) "ms";
  match Stats.tail durations with
  | Some t ->
    say "tail: p%d over %d samples, %d beyond" t.Stats.pct t.Stats.samples
      t.Stats.beyond;
    add "op_ms_tail" (t.Stats.value *. 1000.) "ms"
  | None -> failwith "too few samples for a tail percentile"

(* Self-time totals per layer over every op's span tree. Trace.self_times
   partitions each op's traced wall time (test_stats pins that); whether
   the traced time stands for the untraced op time is [check_replay_time]. *)
type layers = {
  self : (string, float) Hashtbl.t;  (** seconds *)
  calls : (string, int) Hashtbl.t;
  mutable op_s : float;
  mutable unattributed_s : float;
}

let new_layers () =
  { self = Hashtbl.create 16; calls = Hashtbl.create 16; op_s = 0.; unattributed_s = 0. }

let fold_spans layers spans =
  let by_op = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.add by_op s.Trace.op s) spans;
  Hashtbl.iter
    (fun _ (root : Trace.span) ->
      if root.Trace.parent = -1 then begin
        let mine = Hashtbl.find_all by_op root.Trace.op in
        let st = Trace.self_times mine in
        layers.op_s <- layers.op_s +. (root.Trace.t1 -. root.Trace.t0);
        List.iter
          (fun (name, x) ->
            if name = "op" then layers.unattributed_s <- layers.unattributed_s +. x
            else
              Hashtbl.replace layers.self name
                (x +. Option.value (Hashtbl.find_opt layers.self name) ~default:0.))
          st;
        List.iter
          (fun (s : Trace.span) ->
            if s.Trace.parent <> -1 then
              Hashtbl.replace layers.calls s.Trace.name
                (1 + Option.value (Hashtbl.find_opt layers.calls s.Trace.name) ~default:0))
          mine
      end)
    by_op

(* Mean self time per call of layer [span], in ms (0 when the layer is
   not on this workload's path). *)
let layer_ms layers span =
  match Hashtbl.find_opt layers.calls span with
  | Some n when n > 0 -> Hashtbl.find layers.self span *. 1000. /. float_of_int n
  | _ -> 0.

let layer_report layers =
  say "layer split of %.3f s of traced op time:" layers.op_s;
  Hashtbl.iter
    (fun name s ->
      say "  %-20s %8.3f s  %5.1f%%  %d calls" name s (100. *. s /. layers.op_s)
        (Option.value (Hashtbl.find_opt layers.calls name) ~default:0))
    layers.self;
  say "  %-20s %8.3f s  %5.1f%%" "unattributed" layers.unattributed_s
    (100. *. layers.unattributed_s /. layers.op_s)

(* The layer split is of the traced replay's time. It describes the
   measured ops only if the replay takes about as long as the untraced
   op did, so a replay that skipped a layer's work, or did extra work,
   fails here. Each group (a unit's ops, or a whole run) must be within
   a factor of [replay_tolerance] of its untraced time. Groups under
   250 ms in all are not judged: a few-millisecond op can take twice as
   long once in a while (a domain spawn, a page fault), which is noise,
   not a different program. *)
let replay_tolerance = 1.5

let check_replay_time groups =
  let worst, worst_name =
    List.fold_left
      (fun (worst, worst_name) (name, untraced, traced) ->
        if untraced +. traced < 0.5 then (worst, worst_name)
        else begin
          let r = traced /. untraced in
          if r > replay_tolerance || r < 1. /. replay_tolerance then
            violate "%s: the traced replay took %.1f ms, the untraced ops %.1f ms" name
              (traced *. 1000.) (untraced *. 1000.);
          let off = Float.max r (1. /. r) in
          if off > worst then (off, name) else (worst, worst_name)
        end)
      (1., "none") groups
  in
  say "traced/untraced time: worst group %s, off by a factor of %.3f (limit %.2f)" worst_name
    worst replay_tolerance

(* Every per-layer metric, in BENCHMARK.json order; a workload fills the
   ones on its path and the rest read 0. *)
let per_layer_names =
  [
    ("quantum.parse.ms", "ms"); ("quantum.parse.mb_per_s", "MB/s");
    ("quantum.emit.ms", "ms"); ("quantum.digest.ms", "ms");
    ("hardware.device.ms", "ms"); ("caqr.analyze.calls", "count");
    ("caqr.qs.ms", "ms"); ("caqr.qs.search_nodes", "count");
    ("caqr.commute.ms", "ms"); ("caqr.sr.ms", "ms"); ("caqr.cone.ms", "ms");
    ("caqr.gidnet.ms", "ms"); ("caqr.reuse_pairs", "count");
    ("transpiler.route.ms", "ms"); ("transpiler.route.swaps", "count");
    ("transpiler.esp.ms", "ms"); ("guard.budget_trips", "count");
    ("verify.structural.ms", "ms"); ("verify.semantic.ms", "ms");
    ("verify.inconclusive_share", "share"); ("sim.shots_per_s", "1/s");
    ("exec.pool.ms", "ms"); ("exec.pool.efficiency", "share");
    ("serve.protocol.ms", "ms"); ("serve.handle.hit_ms", "ms");
    ("serve.handle.miss_ms", "ms"); ("serve.wire.ms", "ms");
    ("serve.cache.hit_ratio", "share"); ("serve.cache.disk_hit_ratio", "share");
    ("serve.cache.keyed_misses", "count"); ("serve.cache.disk_evictions", "count");
    ("runtime.alloc_mb_per_op", "MB"); ("runtime.major_gcs", "count");
    ("trace.unattributed_share", "share"); ("trace.overhead_share", "share");
  ]

let emit_per_layer values =
  List.iter
    (fun (name, unit) ->
      add name (Option.value (List.assoc_opt name values) ~default:0.) unit)
    per_layer_names

let layer_values layers =
  let ms span = layer_ms layers span in
  [
    ("quantum.emit.ms", ms "quantum.emit"); ("quantum.digest.ms", ms "quantum.digest");
    ("hardware.device.ms", device_ms ()); ("caqr.qs.ms", ms "caqr.qs");
    ("caqr.commute.ms", ms "caqr.commute"); ("caqr.sr.ms", ms "caqr.sr");
    ("caqr.cone.ms", ms "caqr.cone"); ("caqr.gidnet.ms", ms "caqr.gidnet");
    ("transpiler.route.ms", ms "transpiler.route");
    ("transpiler.esp.ms", ms "transpiler.esp");
    ("verify.structural.ms", ms "verify.structural");
    ("verify.semantic.ms", ms "verify.semantic"); ("exec.pool.ms", ms "exec.pool");
    ("serve.protocol.ms", ms "serve.protocol");
    ("trace.unattributed_share", layers.unattributed_s /. layers.op_s);
  ]

(* Summed task time over (domains x wall time) of every pool section;
   a section's domains are [jobs] clamped to its task count, as the pool
   clamps them. *)
let pool_efficiency spans =
  let busy = ref 0. and capacity = ref 0. in
  List.iter
    (fun (p : Trace.span) ->
      if p.Trace.name = "exec.pool" then begin
        let tasks = List.filter (fun (s : Trace.span) -> s.Trace.parent = p.Trace.id) spans in
        busy := List.fold_left (fun a (s : Trace.span) -> a +. (s.Trace.t1 -. s.Trace.t0)) !busy tasks;
        capacity :=
          !capacity +. (float_of_int (max 1 (min jobs (List.length tasks))) *. (p.Trace.t1 -. p.Trace.t0))
      end)
    spans;
  if !capacity > 0. then !busy /. !capacity else 0.

(* Allocation and major collections over the untraced ops only. *)
type gc_acc = { mutable words : float; mutable majors : int; mutable ops : int }

let gc_acc () = { words = 0.; majors = 0; ops = 0 }

let with_gc acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  acc.words <- acc.words +. (words s1 -. words s0);
  acc.majors <- acc.majors + (s1.Gc.major_collections - s0.Gc.major_collections);
  acc.ops <- acc.ops + 1;
  r

let gc_values acc =
  [
    ( "runtime.alloc_mb_per_op",
      acc.words *. float_of_int (Sys.word_size / 8) /. 1048576. /. float_of_int (max 1 acc.ops) );
    ("runtime.major_gcs", float_of_int acc.majors);
  ]

(* Shots per simulate request. Keyed serve requests ask for 128: at the
   1024-shot default, Multiply_13's baseline artifact alone takes ~7 s to
   simulate, which would dominate every serve set-up. *)
let simulate_shots = 128

(* Shots per second of the simulator on circuits the workload produced,
   timed beside the ops with the call the service's simulate verb makes. *)
let sim_shots_per_s circuits =
  match circuits with
  | [] -> 0.
  | _ ->
    let t0 = now () in
    List.iter (fun c -> ignore (Sim.Executor.run ~jobs:1 ~seed:1 ~shots:simulate_shots c)) circuits;
    float_of_int (simulate_shots * List.length circuits) /. (now () -. t0)

(* ======================================================================
   table1 and large: one op compiles one (circuit, strategy) unit
   ====================================================================== *)

type unit_spec = {
  entry : string;
  sname : string;
  strategy : P.strategy;
  input : P.input option;  (** built in process (table1) *)
  text : string option;  (** QASM-3 source each op parses (large) *)
  in_qubits : int;
  device : Hardware.Device.t;
  level : Verify.level;
  golden : string option;
}

let label u = u.entry ^ " x " ^ u.sname

type outcome =
  | Done of { report : P.report; artifact : string }
  | Failed of Guard.Error.t

let raise_error e = raise (Guard.Error.Guard_error e)

let emit physical = Quantum.Qasm.to_string (fst (C.compact_qubits physical))

let options_of ~collect u =
  { P.default with P.verify = Some u.level; jobs; collect_metrics = collect }

(* The untraced op: parse (large), Pipeline.compile, emit. With
   [collect], also the compile's work counters (read from the registry
   when the compile failed and left no report). *)
let compile_op ?(collect = false) u =
  let result =
    Guard.Error.protect ~stage:"perfbench.op" (fun () ->
        let input =
          match u.text with
          | None -> Option.get u.input
          | Some t -> (match Quantum.Qasm_parser.parse t with Ok c -> P.Regular c | Error e -> raise_error e)
        in
        let r = P.compile ~options:(options_of ~collect u) u.device u.strategy input in
        (r, emit r.P.physical))
  in
  let counters =
    match result with
    | Ok (r, _) -> (match r.P.metrics with Some s -> s.Obs.Metrics.counters | None -> [])
    | Error _ when collect -> (Obs.Metrics.snapshot ()).Obs.Metrics.counters
    | Error _ -> []
  in
  ( (match result with
     | Ok (report, artifact) -> Done { report; artifact }
     | Error e -> Failed e),
    counters )

(* ---- the traced replay: Pipeline.compile's calls, in its order ---- *)

let structural_verdict (s : Verify.subject) =
  let module S = Verify.Structural in
  Verify.Verdict.combine
    [
      (match (s.Verify.commutable, s.Verify.pairs) with
       | Some g, Some pairs -> S.check_commutable_pairs ~graph:g pairs
       | None, Some pairs -> S.check_pairs ~original:s.Verify.original pairs
       | _, None -> Verify.Equivalent);
      S.check_wellformed s.Verify.original;
      S.check_wellformed s.Verify.logical;
      S.check_wellformed s.Verify.physical;
      S.check_coupling s.Verify.device s.Verify.physical;
      S.check_accounting ~logical:s.Verify.original ~physical:s.Verify.logical;
      S.check_accounting ~logical:s.Verify.logical ~physical:s.Verify.physical;
    ]

let sim_width c = (fst (C.compact_qubits (Quantum.Optimize.elide_swaps c))).C.num_qubits

(* Verify.run, split into its structural and semantic halves. *)
let replay_verify ~seed level (s : Verify.subject) =
  let structural = Trace.span "verify.structural" (fun () -> structural_verdict s) in
  if Verify.Verdict.is_inequivalent structural || level = Verify.Static then structural
  else
    Trace.span "verify.semantic" @@ fun () ->
    let probe_inputs () =
      match s.Verify.pairs with
      | None -> []
      | Some pairs ->
        let dsts = List.map (fun (p : Verify.Structural.pair) -> p.Verify.Structural.dst) pairs in
        List.filter (fun q -> not (List.mem q dsts)) (C.active_qubits s.Verify.original)
    in
    let probe ~product original transformed =
      let w = max (sim_width original) (sim_width transformed) in
      let d = Verify.Probe.default in
      let config =
        {
          d with
          Verify.Probe.probes = (if w > 16 then 1 else d.Verify.Probe.probes);
          product_inputs = (if product && w <= 16 then probe_inputs () else []);
        }
      in
      Verify.Probe.check ~config ~seed ~original ~transformed ()
    in
    let semantic ~product original transformed =
      match level with
      | Verify.Static -> Verify.Equivalent
      | Verify.Sampled -> probe ~product original transformed
      | Verify.Exact -> Verify.Equiv.check ~original ~transformed ()
      | Verify.Auto ->
        (match Verify.Equiv.check ~original ~transformed () with
         | Verify.Inconclusive _ -> probe ~product original transformed
         | v -> v)
    in
    let cmp = ref [] in
    if s.Verify.logical != s.Verify.original then
      cmp := semantic ~product:true s.Verify.original s.Verify.logical :: !cmp;
    cmp := semantic ~product:false s.Verify.original s.Verify.physical :: !cmp;
    if
      sim_width s.Verify.original > Verify.Probe.default.Verify.Probe.max_qubits
      && s.Verify.logical != s.Verify.original
    then cmp := semantic ~product:false s.Verify.logical s.Verify.physical :: !cmp;
    Verify.Verdict.combine (structural :: List.rev !cmp)

type replayed = {
  r_artifact : string;
  r_stats : Transpiler.Transpile.stats;
  r_verdict : Verify.verdict;
}

let replay u =
  Guard.Budget.scoped (Guard.Budget.make ()) @@ fun () ->
  let span = Trace.span in
  let input =
    match u.text with
    | None -> Option.get u.input
    | Some t ->
      span "quantum.parse" (fun () ->
          match Quantum.Qasm_parser.parse t with Ok c -> P.Regular c | Error e -> raise_error e)
  in
  let original =
    match input with
    | P.Regular c -> c
    | P.Commutable g -> span "caqr.commute" (fun () -> Caqr.Commute.emit (Caqr.Commute.make g))
  in
  let device = u.device in
  let search = P.default.P.search in
  let engine f = Guard.Budget.scoped (Guard.Budget.fraction 0.6) f in
  let finish logical reuse =
    let r =
      span "transpiler.route" (fun () ->
          Transpiler.Transpile.run device (fst (C.compact_qubits logical)))
    in
    (logical, r.Transpiler.Transpile.physical, r.Transpiler.Transpile.stats, reuse)
  in
  let steps () =
    match input with
    | P.Regular c ->
      span "caqr.qs" (fun () ->
          List.map
            (fun (s : Caqr.Qs_caqr.step) -> (s.Caqr.Qs_caqr.circuit, s.Caqr.Qs_caqr.pairs))
            (Caqr.Qs_caqr.sweep ~opts:search c))
    | P.Commutable g ->
      span "caqr.commute" (fun () ->
          List.map
            (fun (s : Caqr.Commute.step) ->
              (Caqr.Commute.emit s.Caqr.Commute.plan, Caqr.Commute.pairs s.Caqr.Commute.plan))
            (Caqr.Commute.sweep g))
  in
  let regular_pairs pairs = match input with P.Regular _ -> Some pairs | P.Commutable _ -> None in
  let (logical, physical, stats, _), pairs =
    match u.strategy with
    | P.Baseline -> (finish original 0, Some [])
    | P.Sr ->
      let r =
        span "caqr.sr" (fun () ->
            match input with
            | P.Regular c -> Caqr.Sr_caqr.regular device c
            | P.Commutable g -> Caqr.Sr_caqr.commutable device g)
      in
      let stats =
        span "transpiler.route" (fun () ->
            Transpiler.Transpile.stats_of device r.Caqr.Sr_caqr.physical)
      in
      ((original, r.Caqr.Sr_caqr.physical, stats, r.Caqr.Sr_caqr.reuses), None)
    | P.Qs_max_reuse ->
      (match input with
       | P.Regular c ->
         let a = span "caqr.qs" (fun () -> engine (fun () -> Caqr.Qs_caqr.max_reuse_anytime ~opts:search c)) in
         ( finish a.Caqr.Qs_caqr.circuit (C.mid_circuit_measurements a.Caqr.Qs_caqr.circuit),
           Some a.Caqr.Qs_caqr.pairs )
       | P.Commutable _ ->
         (match List.rev (steps ()) with
          | (c, pairs) :: _ -> (finish c (List.length pairs), Some pairs)
          | [] -> invalid_arg "replay: empty sweep"))
    | P.Qs_best_fidelity ->
      let steps = steps () in
      let candidates =
        span "exec.pool" (fun () ->
            let here = Trace.here () in
            Exec.Pool.map ~jobs
              (fun (c, pairs) ->
                Trace.adopt here (fun () -> (finish c (List.length pairs), Some pairs)))
              steps)
      in
      let esp (_, physical, _, _) = Transpiler.Esp.of_circuit device physical in
      (match
         span "transpiler.esp" (fun () ->
             List.sort (fun (a, _) (b, _) -> compare (esp b) (esp a)) candidates)
       with
       | best :: _ -> best
       | [] -> invalid_arg "replay: empty sweep")
    | P.Cone ->
      let r = span "caqr.cone" (fun () -> engine (fun () -> Caqr.Cone_caqr.run original)) in
      ( finish r.Caqr.Cone_caqr.circuit (List.length r.Caqr.Cone_caqr.pairs),
        regular_pairs r.Caqr.Cone_caqr.pairs )
    | P.Gidnet ->
      let r = span "caqr.gidnet" (fun () -> engine (fun () -> Caqr.Gidnet_caqr.run original)) in
      ( finish r.Caqr.Gidnet_caqr.circuit (List.length r.Caqr.Gidnet_caqr.pairs),
        regular_pairs r.Caqr.Gidnet_caqr.pairs )
    | P.Qs_min_depth | P.Qs_target _ -> invalid_arg "replay: strategy not in any workload"
  in
  let subject =
    {
      Verify.original;
      logical;
      physical;
      device;
      pairs =
        Option.map
          (List.map (fun (p : Caqr.Reuse.pair) ->
               { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst }))
          pairs;
      commutable = (match input with P.Commutable g -> Some g | P.Regular _ -> None);
    }
  in
  let verdict = replay_verify ~seed:P.default.P.seed u.level subject in
  let artifact = span "quantum.emit" (fun () -> emit physical) in
  { r_artifact = artifact; r_stats = stats; r_verdict = verdict }

(* ---- building the units ---- *)

let table1_strategies =
  [ P.Baseline; P.Qs_max_reuse; P.Qs_best_fidelity; P.Sr; P.Cone; P.Gidnet ]

let large_strategies = [ P.Baseline; P.Sr; P.Cone; P.Gidnet; P.Qs_max_reuse ]

(* Golden files are read in place, never copied or rewritten. *)
let golden ~entry ~sname =
  let path = Filename.concat "test/golden" (Printf.sprintf "%s.%s.qasm" entry sname) in
  if Sys.file_exists path then Some (read_file path) else None


let table1_units () =
  List.concat_map
    (fun (e : Benchmarks.Suite.entry) ->
      let n = e.Benchmarks.Suite.circuit.C.num_qubits in
      let input =
        match e.Benchmarks.Suite.kind with
        | Benchmarks.Suite.Regular -> P.Regular e.Benchmarks.Suite.circuit
        | Benchmarks.Suite.Commutable g -> P.Commutable g
      in
      let device = device_for n in
      List.map
        (fun strategy ->
          let sname = P.strategy_name strategy in
          {
            entry = e.Benchmarks.Suite.name;
            sname;
            strategy;
            input = Some input;
            text = None;
            in_qubits = n;
            device;
            level = (if n <= 13 then Verify.Auto else Verify.Static);
            golden = golden ~entry:e.Benchmarks.Suite.name ~sname;
          })
        table1_strategies)
    (Benchmarks.Suite.table1 ())

(* The registry's own generators, so the corpus matches its golden
   baselines. The seed only orders the units: reseeding the random
   families moved width_ratio by 6% and op_ms_p50 by 50% between seeds,
   more than any bound could absorb. *)
let large_units () =
  let inputs =
    List.map
      (fun name ->
        match Benchmarks.Large.find_opt name with
        | Some g -> (name, g.Benchmarks.Large.build)
        | None -> failwith ("unknown large benchmark " ^ name))
      [ "qaoa-powerlaw-100"; "cuccaro-64"; "cuccaro-128"; "qft-layered-100"; "rand-dyn-100" ]
  in
  List.concat_map
    (fun (name, build) ->
      let c = build () in
      let text = Quantum.Qasm.to_string c in
      let device = device_for c.C.num_qubits in
      List.map
        (fun strategy ->
          let sname = P.strategy_name strategy in
          {
            entry = name;
            sname;
            strategy;
            input = None;
            text = Some text;
            in_qubits = c.C.num_qubits;
            device;
            level = Verify.Static;
            golden = golden ~entry:name ~sname;
          })
        large_strategies)
    inputs

(* Passes per second of --seconds: the run length fixes the pass count,
   so the sample count never depends on the clock. On a 2-vCPU host a
   table1 pass takes ~3.4 s and a large pass ~10-14 s, so 20 s give 7
   passes of table1 (the tail rank then falls inside the samples of the
   two slowest units, not on a maximum) and 2 of large (with one pass,
   p50 and tail were single samples, and the tail moved 28% between
   seeds). *)
let passes_per_s = function "table1" -> 0.35 | _ -> 0.1

(* Every op starts from a collected heap, as a CLI compile starts from a
   fresh process, and the collection is not timed. Without it an op paid
   for the garbage of whichever op the shuffle put before it: on large,
   where QS leaves ~1 GB behind, op_ms_p50 moved 25% between seeds. *)
let settled f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let run_compile_workload args =
  let calib_before = calibrate () in
  let build () = if args.workload = "table1" then table1_units () else large_units () in
  (* Set-up: build inputs and devices (three times, keeping the median),
     then run every unit once. *)
  let builds = List.init 3 (fun _ -> let t0 = now () in let u = build () in (now () -. t0, u)) in
  let units = Array.of_list (snd (List.hd builds)) in
  let warm =
    let timed = Array.map (fun u -> settled (fun () -> compile_op ~collect:args.trace u)) units in
    (Array.fold_left (fun a (d, _) -> a +. d) 0. timed, Array.map snd timed)
  in
  let reference = snd warm in
  let setup_s = Stats.median (Array.of_list (List.map fst builds)) +. fst warm in
  let passes = max 1 (int_of_float (Float.round (float_of_int args.seconds *. passes_per_s args.workload))) in
  let rng = Random.State.make [| args.seed; 0x7ab1e |] in
  let n = Array.length units in
  (* What the gate and the metrics keep of each measured op. *)
  let slim = function
    | Done d -> Ok (d.artifact, d.report.P.stats, d.report.P.verification)
    | Failed e -> Error (Guard.Error.to_string e)
  in
  let samples = ref [] and op_id = ref 0 in
  let layers = new_layers () in
  let gc = gc_acc () in
  let untraced_s = ref 0. and traced_s = ref 0. in
  (* Per unit: untraced and traced op time, summed over the passes. *)
  let unit_times = Array.make (Array.length units) (0., 0.) in
  for _ = 1 to passes do
    let order = Array.init n Fun.id in
    Stats.shuffle rng order;
    Array.iter
      (fun i ->
        let u = units.(i) in
        let untraced () =
          settled (fun () -> if args.trace then with_gc gc (fun () -> compile_op u) else compile_op u)
        in
        let traced () =
          Trace.enabled := true;
          let r =
            settled (fun () ->
                Guard.Error.protect ~stage:"perfbench.replay" (fun () ->
                    Trace.op !op_id (fun () -> replay u)))
          in
          Trace.enabled := false;
          r
        in
        incr op_id;
        if not args.trace then begin
          let d, (o, _) = untraced () in
          samples := (i, d, slim o) :: !samples
        end
        else begin
          (* Alternate which of the pair runs first, so neither always
             finds the other's data in the caches. *)
          let (d, (o, _)), (dt, r) =
            if !op_id mod 2 = 0 then
              let a = untraced () in
              (a, traced ())
            else
              let b = traced () in
              (untraced (), b)
          in
          samples := (i, d, slim o) :: !samples;
          untraced_s := !untraced_s +. d;
          traced_s := !traced_s +. dt;
          (let a, b = unit_times.(i) in
           unit_times.(i) <- (a +. d, b +. dt));
          match (o, r) with
          | Done d, Ok r ->
            if
              r.r_artifact <> d.artifact
              || r.r_stats <> d.report.P.stats
              || Some (Verify.Verdict.to_string r.r_verdict)
                 <> Option.map Verify.Verdict.to_string d.report.P.verification
            then violate "%s: the traced replay differs from Pipeline.compile" (label u)
          | Failed e, Error e' ->
            if e.Guard.Error.site <> e'.Guard.Error.site then
              violate "%s: the traced replay fails differently" (label u)
          | _ -> violate "%s: the traced replay and Pipeline.compile disagree on failure" (label u)
        end)
      order
  done;
  let samples = List.rev !samples in
  (* The measured window is the ops' own time; the collections between
     them are not part of it. *)
  let window = List.fold_left (fun a (_, d, _) -> a +. d) 0. samples in
  (* ---- correctness gate ---- *)
  let golden_checked = ref 0 in
  Array.iteri
    (fun i (o, _) ->
      let u = units.(i) in
      match o with
      | Done d ->
        let compact = fst (C.compact_qubits d.report.P.physical) in
        (match Quantum.Qasm_parser.parse d.artifact with
         | Ok c ->
           if c.C.num_qubits <> compact.C.num_qubits || C.gate_count c <> C.gate_count compact then
             violate "%s: emitted QASM-3 parses back to a different circuit" (label u)
         | Error e -> violate "%s: emitted QASM-3 does not parse: %s" (label u) (Guard.Error.to_string e));
        (match u.golden with
         | Some g ->
           incr golden_checked;
           if g <> d.artifact then violate "%s: differs from its golden file" (label u)
         | None -> ())
      | Failed e ->
        if u.golden <> None then violate "%s: golden unit failed: %s" (label u) (Guard.Error.to_string e))
    reference;
  let verdict = Option.map Verify.Verdict.to_string in
  let same a b =
    match (a, b) with
    | Ok (x, (sx : Transpiler.Transpile.stats), vx), Ok (y, (sy : Transpiler.Transpile.stats), vy) ->
      x = y && sx.Transpiler.Transpile.qubits_used = sy.Transpiler.Transpile.qubits_used
      && verdict vx = verdict vy
    | Error x, Error y -> x = y
    | _ -> false
  in
  (* Every compile's verdict, the warm-up's and each measured op's. *)
  let no_inequivalent what i = function
    | Ok (_, _, Some v) when Verify.Verdict.is_inequivalent v ->
      violate "%s: verdict %s (%s)" (label units.(i)) (Verify.Verdict.to_string v) what
    | _ -> ()
  in
  let ref_slim = Array.map (fun (o, _) -> slim o) reference in
  Array.iteri (no_inequivalent "warm-up") ref_slim;
  List.iter
    (fun (i, _, o) ->
      no_inequivalent "measured" i o;
      if not (same o ref_slim.(i)) then violate "%s: output differs between passes" (label units.(i)))
    samples;
  (* One row per unit: its median op time over the passes. *)
  Array.iteri
    (fun i u ->
      let ds = List.filter_map (fun (j, d, _) -> if i = j then Some d else None) samples in
      say "unit %-32s %10.3f ms  %s" (label u)
        (Stats.median (Array.of_list ds) *. 1000.)
        (match ref_slim.(i) with
         | Ok (_, st, _) -> Printf.sprintf "qubits %d of %d" st.Transpiler.Transpile.qubits_used u.in_qubits
         | Error _ -> "failed"))
    units;
  say "golden files matched: %d units" !golden_checked;
  let failures = Array.to_list (Array.mapi (fun i (o, _) -> (units.(i), o)) reference) in
  List.iter
    (function
      | u, Failed e ->
        say "FAILED (every pass): %s at stage %s, site %s: %s" (label u) e.Guard.Error.stage
          e.Guard.Error.site e.Guard.Error.detail
      | _ -> ())
    failures;
  (* ---- metrics ---- *)
  let attempted = List.length samples in
  let ok = List.length (List.filter (fun (_, _, o) -> Result.is_ok o) samples) in
  let baseline_dt entry =
    Array.to_list reference
    |> List.mapi (fun i r -> (units.(i), r))
    |> List.find_map (fun (u, (o, _)) ->
           match o with
           | Done d when u.entry = entry && u.strategy = P.Baseline ->
             Some d.report.P.stats.Transpiler.Transpile.duration_dt
           | _ -> None)
  in
  let ratio f =
    Stats.geomean
      (List.map (fun (i, _, o) -> match o with Ok (_, st, _) -> f units.(i) st | Error _ -> None) samples)
  in
  let width_ratio =
    ratio (fun u (st : Transpiler.Transpile.stats) ->
        Some (float_of_int st.Transpiler.Transpile.qubits_used /. float_of_int u.in_qubits))
  in
  let duration_ratio =
    ratio (fun u (st : Transpiler.Transpile.stats) ->
        Option.map
          (fun b -> float_of_int st.Transpiler.Transpile.duration_dt /. float_of_int b)
          (baseline_dt u.entry))
  in
  if not args.trace then begin
    add "setup_s" setup_s "s";
    add_latency_metrics ~ok ~window (Array.of_list (List.map (fun (_, d, _) -> d) samples));
    add "ok_share" (float_of_int ok /. float_of_int attempted) "share";
    add "width_ratio" width_ratio "ratio";
    add "duration_ratio" duration_ratio "ratio";
    add "peak_rss_mb" (vmhwm_mb "self") "MB"
  end
  else begin
    let spans = Trace.take () in
    let pool_efficiency = pool_efficiency spans in
    fold_spans layers spans;
    layer_report layers;
    check_replay_time
      (("all ops", !untraced_s, !traced_s)
      :: Array.to_list (Array.mapi (fun i (a, b) -> (label units.(i), a, b)) unit_times));
    (* Work counters of one pass, from the warm-up compiles' reports. *)
    let counter names =
      Array.fold_left
        (fun acc (_, counters) ->
          List.fold_left
            (fun acc (k, v) -> if List.mem k names then acc + v else acc)
            acc counters)
        0 reference
      |> float_of_int
    in
    let done_reports =
      Array.to_list reference |> List.filter_map (function Done d, _ -> Some d.report | _ -> None)
    in
    let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 done_reports) in
    let verified = List.filter (fun r -> r.P.verification <> None) done_reports in
    let inconclusive =
      List.filter
        (fun r -> match r.P.verification with Some (Verify.Inconclusive _) -> true | _ -> false)
        verified
    in
    let parse_bytes =
      Array.fold_left
        (fun a u -> a +. float_of_int (match u.text with Some t -> String.length t | None -> 0))
        0. units
    in
    let parse_s = Option.value (Hashtbl.find_opt layers.self "quantum.parse") ~default:0. in
    let sim_circuits =
      Array.to_list reference
      |> List.mapi (fun i r -> (units.(i), r))
      |> List.filter_map (fun (u, (o, _)) ->
             match o with Done d when u.in_qubits <= 13 -> Some d.report.P.physical | _ -> None)
    in
    emit_per_layer
      (layer_values layers
      @ gc_values gc
      @ [
          ("quantum.parse.ms", layer_ms layers "quantum.parse");
          ( "quantum.parse.mb_per_s",
            if parse_s > 0. then parse_bytes *. float_of_int passes /. 1048576. /. parse_s else 0. );
          ("caqr.analyze.calls", counter [ "reuse.analyze.fresh"; "reuse.analyze.incremental" ]);
          ("caqr.qs.search_nodes", counter [ "qs.search.nodes" ]);
          ("guard.budget_trips", counter [ "guard.budget.trips" ]);
          ("caqr.reuse_pairs", sum (fun r -> r.P.reuse_pairs));
          ("transpiler.route.swaps", sum (fun r -> r.P.stats.Transpiler.Transpile.swaps));
          ( "verify.inconclusive_share",
            if verified = [] then 0.
            else float_of_int (List.length inconclusive) /. float_of_int (List.length verified) );
          ("exec.pool.efficiency", pool_efficiency);
          ("sim.shots_per_s", sim_shots_per_s sim_circuits);
          ("trace.overhead_share", (!traced_s /. !untraced_s) -. 1.);
        ])
  end;
  finish ~args ~attempted ~ok ~calib_before ~measured_s:window

(* ======================================================================
   serve: a daemon child process, driven closed-loop over TCP loopback
   ====================================================================== *)

let cli_exe = "_build/default/bin/caqr_cli.exe"

(* Working space inside the checkout for the daemons' cache tiers;
   removed when the run ends. *)
let work_dir = ".perfbench"

(* The keyed set (135 results) overflows the memory tier, so disk reads
   happen; the disk tier is unbounded, so no keyed entry is ever evicted
   and recomputed. *)
let mem_capacity = 64

(* Each block of requests holds the same multiset: 900 keyed draws and
   100 fresh circuits. *)
let block = 1000
let fresh_per_block = 100

(* Blocks per second of --seconds: 45 blocks at 20 s, about 20 s of
   traffic on a 2-vCPU host. *)
let blocks_per_s = 2.25

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* The daemon's domains: one handler per client connection. Its pool
   spawns domains per batch and closed-loop requests come one per batch,
   so only the set-up's pipelined warm-up fans out; in the measured
   window at most the two handlers are busy. (With one job instead, the
   timings did not steady, and the daemon's peak RSS, set by the warm-up
   at two jobs, moved by up to 30% from run to run.) *)
let handler_domains = 2

let live_daemons : int list ref = ref []

let spawn_daemon dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv =
    [|
      cli_exe; "serve"; "--addr"; "tcp:127.0.0.1:0"; "--cache-dir"; dir; "--cache-mem";
      string_of_int mem_capacity; "--jobs"; string_of_int jobs; "--handler-domains";
      string_of_int handler_domains;
    |]
  in
  let pid = Unix.create_process cli_exe argv null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> failwith "the daemon exited before listening" in
  let marker = "listening on " in
  let addr =
    match find_sub ~sub:marker line with
    | None -> failwith ("unexpected daemon banner: " ^ line)
    | Some i ->
      let rest = String.sub line (i + String.length marker) (String.length line - i - String.length marker) in
      let tok = List.hd (String.split_on_char ' ' rest) in
      (match Serve.Transport.addr_of_string tok with Ok a -> a | Error m -> failwith m)
  in
  (pid, addr, ic)

let call addr line = List.hd (Serve.Client.call ~addr [ line ])

let stop_daemon (pid, addr, ic) =
  ignore (call addr {|{"op":"shutdown"}|});
  ignore (Unix.waitpid [] pid);
  live_daemons := List.filter (( <> ) pid) !live_daemons;
  close_in ic

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !live_daemons;
  live_daemons := [];
  rm_rf work_dir

type kind = Keyed of { bench : string; verb : string; sname : string } | Fresh of string

type request = { line : string; kind : kind; in_qubits : int }

(* A response, parsed once. [raw] is the response's bytes from its
   "result" field on, kept for byte comparison: the result object is the
   last field and the unit the cache stores. *)
type reply = { ok : bool; hit : bool; result : J.t; raw : string }

let reply_of response =
  match J.parse response with
  | Error m -> failwith ("unparsable response: " ^ m)
  | Ok j ->
    {
      ok = J.bool_field "ok" j = Some true;
      hit = J.string_field "cache" j = Some "hit";
      result = Option.value (J.member "result" j) ~default:J.Null;
      raw =
        (match find_sub ~sub:{|"result":|} response with
         | Some i -> String.sub response i (String.length response - i)
         | None -> "");
    }

let serve_strategies = [ P.Baseline; P.Qs_max_reuse; P.Sr; P.Cone; P.Gidnet ]

let run_serve args =
  let calib_before = calibrate () in
  rm_rf work_dir;
  Sys.mkdir work_dir 0o755;
  let benches =
    List.filter
      (fun (e : Benchmarks.Suite.entry) -> e.Benchmarks.Suite.circuit.C.num_qubits <= 13)
      (Benchmarks.Suite.table1 ())
  in
  let circuits = Hashtbl.create 16 in
  List.iter
    (fun (e : Benchmarks.Suite.entry) -> Hashtbl.replace circuits e.Benchmarks.Suite.name e.Benchmarks.Suite.circuit)
    benches;
  let keys =
    Array.of_list
      (List.concat_map
         (fun (e : Benchmarks.Suite.entry) ->
           List.concat_map
             (fun verb ->
               List.map
                 (fun s ->
                   let sname = P.strategy_name s in
                   {
                     line =
                       Printf.sprintf {|{"op":"%s","bench":"%s","strategy":"%s"%s}|} verb
                         e.Benchmarks.Suite.name sname
                         (if verb = "simulate" then Printf.sprintf {|,"shots":%d|} simulate_shots else "");
                     kind = Keyed { bench = e.Benchmarks.Suite.name; verb; sname };
                     in_qubits = e.Benchmarks.Suite.circuit.C.num_qubits;
                   })
                 serve_strategies)
             [ "compile"; "verify"; "simulate" ])
         benches)
  in
  (* Fresh requests: one fixed 24-qubit dynamic circuit with a new
     trailing Rz angle each time, so each digest is new; cone and gidnet
     cost the same whatever the angle. *)
  let fresh_base = Quantum.Qasm.to_string (Benchmarks.Large.rand_dyn ~seed:24 24) in
  let fresh k =
    let src = fresh_base ^ Printf.sprintf "rz(%.4f) q[0];\n" (0.0001 *. float_of_int (k + 1)) in
    let strategy = if k mod 2 = 0 then "cone" else "gidnet" in
    {
      line = J.to_string (J.Obj [ ("op", J.String "compile"); ("qasm3", J.String src); ("strategy", J.String strategy) ]);
      kind = Fresh src;
      in_qubits = 24;
    }
  in
  (* Stratified Zipf (s = 1): every block carries the same multiset. The
     keys' ranks come from a fixed stream, so every seed sends the same
     multiset (a seeded ranking moved width_ratio by 20% between seeds);
     the seed orders each block. *)
  let ranked = Array.copy keys in
  Stats.shuffle (Random.State.make [| 0x5e77e |]) ranked;
  let rng = Random.State.make [| args.seed; 0x5e77e |] in
  let counts = Stats.zipf_counts ~s:1. ~n:(Array.length keys) ~block:(block - fresh_per_block) in
  let blocks =
    max 1 (int_of_float (Float.round (float_of_int args.seconds *. blocks_per_s)))
  in
  let next_fresh = ref 0 in
  let reqs =
    Array.concat
      (List.init blocks (fun _ ->
           let b =
             Array.concat
               (Array.to_list (Array.mapi (fun i c -> Array.make c ranked.(i)) counts)
               @ [ Array.init fresh_per_block (fun _ -> let k = !next_fresh in incr next_fresh; fresh k) ])
           in
           Stats.shuffle rng b;
           b))
  in
  let n = Array.length reqs in
  (* Set-up, three times: spawn a daemon on an empty cache until health
     answers, then send every keyed request once. The last one serves. *)
  let setups =
    List.init 3 (fun k ->
        let dir = Filename.concat work_dir (Printf.sprintf "daemon%d" k) in
        let t0 = now () in
        let ((_, addr, _) as d) = spawn_daemon dir in
        let health = call addr {|{"op":"health"}|} in
        if J.string_field "status" (reply_of health).result <> Some "serving" then
          failwith ("daemon unhealthy: " ^ health);
        let warm = Serve.Client.call ~addr (Array.to_list (Array.map (fun r -> r.line) keys)) in
        List.iter2
          (fun r resp -> if not (reply_of resp).ok then violate "warm-up %s failed: %s" r.line resp)
          (Array.to_list keys) warm;
        let dt = now () -. t0 in
        if k < 2 then stop_daemon d;
        (dt, d))
  in
  let setup_s = Stats.median (Array.of_list (List.map fst setups)) in
  let ((pid, addr, _) as daemon) = snd (List.nth setups 2) in
  let stats () =
    let j = (reply_of (call addr {|{"op":"stats"}|})).result in
    let obj k j = Option.value (J.member k j) ~default:J.Null in
    let ints j = match j with J.Obj kv -> List.filter_map (fun (k, v) -> match v with J.Int i -> Some (k, i) | _ -> None) kv | _ -> [] in
    (ints (obj "cache" j), ints (obj "counters" (obj "metrics" j)))
  in
  let cache0, counters0 = stats () in
  let responses = Array.make n "" and lat = Array.make n 0. in
  let t_start = now () in
  let drive t =
    let conn = Serve.Transport.connect addr in
    let i = ref t in
    while !i < n do
      let s = now () in
      Serve.Transport.send conn [ reqs.(!i).line ];
      (match Serve.Transport.recv conn with
       | Some r -> responses.(!i) <- r
       | None -> failwith "the daemon closed the connection");
      lat.(!i) <- now () -. s;
      i := !i + 2
    done;
    Serve.Transport.close conn
  in
  List.iter Thread.join (List.init 2 (fun t -> Thread.create drive t));
  let window = now () -. t_start in
  (let of_kind keyed =
     Array.of_list
       (List.filter_map
          (fun i ->
            match reqs.(i).kind with
            | Keyed _ when keyed -> Some (lat.(i) *. 1000.)
            | Fresh _ when not keyed -> Some (lat.(i) *. 1000.)
            | _ -> None)
          (List.init n Fun.id))
   in
   say "latency p50: keyed %.4f ms, fresh %.4f ms" (Stats.median (of_kind true))
     (Stats.median (of_kind false)));
  let cache1, counters1 = stats () in
  let rss = vmhwm_mb (string_of_int pid) in
  stop_daemon daemon;
  let delta a b k = float_of_int (Option.value (List.assoc_opt k b) ~default:0 - Option.value (List.assoc_opt k a) ~default:0) in
  (* ---- reference: the same requests through an in-process server
     configured like the daemon ---- *)
  let gc = gc_acc () in
  let new_server name =
    Serve.Server.create
      {
        Serve.Server.default_config with
        Serve.Server.jobs;
        handler_domains;
        mem_capacity;
        cache_dir = Some (Filename.concat work_dir name);
      }
  in
  (* Pipelined batches of 64, through handle_batch as the daemon takes them. *)
  let batch server lines =
    let out = Array.make (Array.length lines) "" in
    let rec go i =
      if i < Array.length lines then begin
        let k = min 64 (Array.length lines - i) in
        let resp, _ = Serve.Server.handle_batch server (Array.to_list (Array.sub lines i k)) in
        List.iteri (fun j r -> out.(i + j) <- r) resp;
        go (i + k)
      end
    in
    go 0;
    out
  in
  let serve_op server r () =
    (match Trace.span "serve.protocol" (fun () -> Serve.Protocol.of_line r.line) with
     | Ok _ -> ()
     | Error m -> failwith m);
    let c =
      match r.kind with
      | Fresh src ->
        Trace.span "quantum.parse" (fun () ->
            match Quantum.Qasm_parser.parse src with Ok c -> c | Error e -> raise_error e)
      | Keyed k -> Hashtbl.find circuits k.bench
    in
    ignore (Trace.span "quantum.digest" (fun () -> C.digest c));
    Trace.span "serve.handle" (fun () ->
        let h0 = now () in
        let resp = fst (Serve.Server.handle_line server r.line) in
        (resp, now () -. h0))
  in
  (* A traced run replays every request twice, alternating: untraced on
     the reference server, then traced on a second server, so both
     replays see the same host conditions. *)
  let replay () =
    let reference = new_server "reference" and traced = new_server "traced" in
    let lines = Array.map (fun r -> r.line) keys in
    let warm = batch reference lines in
    ignore (batch traced lines);
    let ref_out = Array.make n "" and traced_out = Array.make n "" in
    let handle_s = Array.make n 0. in
    let untraced_s = ref 0. and traced_s = ref 0. in
    Array.iteri
      (fun i r ->
        let untraced () =
          let t0 = now () in
          ref_out.(i) <- fst (with_gc gc (serve_op reference r));
          untraced_s := !untraced_s +. (now () -. t0)
        in
        let traced () =
          let t0 = now () in
          Trace.enabled := true;
          let resp, h = Trace.op i (serve_op traced r) in
          Trace.enabled := false;
          traced_s := !traced_s +. (now () -. t0);
          traced_out.(i) <- resp;
          handle_s.(i) <- h
        in
        (* Alternate which of the pair runs first. *)
        if i mod 2 = 0 then (untraced (); traced ()) else (traced (); untraced ()))
      reqs;
    (warm, ref_out, traced_out, handle_s, !untraced_s, !traced_s)
  in
  let warm_ref, reference, traced_replay =
    if args.trace then
      let w, out, traced, handle_s, ut, tt = replay () in
      (w, out, Some (traced, handle_s, ut, tt))
    else begin
      (* A keyed line's result is the same every time it is sent, so
         only the fresh lines need computing beyond the warm-up. *)
      let server = new_server "reference" in
      let w = batch server (Array.map (fun r -> r.line) keys) in
      let keyed = Hashtbl.create 256 in
      Array.iteri (fun i r -> Hashtbl.replace keyed r.line w.(i)) keys;
      let fresh =
        Array.of_list
          (List.filter (fun i -> match reqs.(i).kind with Fresh _ -> true | Keyed _ -> false) (List.init n Fun.id))
      in
      let fresh_out = batch server (Array.map (fun i -> reqs.(i).line) fresh) in
      let out = Array.map (fun r -> Option.value (Hashtbl.find_opt keyed r.line) ~default:"") reqs in
      Array.iteri (fun j i -> out.(i) <- fresh_out.(j)) fresh;
      (w, out, None)
    end
  in
  (* ---- correctness gate ---- *)
  let replies = Array.map reply_of responses in
  let reference = Array.map reply_of reference in
  let keyed_misses = ref 0 in
  let ok = ref 0 in
  Array.iteri
    (fun i r ->
      if r.ok then begin
        if r.raw <> reference.(i).raw then
          violate "request %d: daemon result differs from the in-process reference" i
        else incr ok;
        match reqs.(i).kind with Keyed _ when not r.hit -> incr keyed_misses | _ -> ()
      end
      else say "FAILED request %d: %s" i responses.(i))
    replies;
  if !keyed_misses > 0 then violate "%d keyed requests missed the cache" !keyed_misses;
  (* ---- metrics ---- *)
  let int_of k j = Option.value (J.int_field k j) ~default:0 in
  let baseline_dt = Hashtbl.create 32 in
  Array.iteri
    (fun i r ->
      match r.kind with
      | Keyed k when k.sname = "baseline" ->
        Hashtbl.replace baseline_dt (k.bench, k.verb) (int_of "duration_dt" (reply_of warm_ref.(i)).result)
      | _ -> ())
    keys;
  let fresh_baseline =
    let c = Quantum.Qasm_parser.of_string (match (fresh 0).kind with Fresh s -> s | Keyed _ -> assert false) in
    (P.compile (Hardware.Device.heavy_hex_for c.C.num_qubits) P.Baseline (P.Regular c)).P.stats
      .Transpiler.Transpile.duration_dt
  in
  let results = Array.map (fun r -> if r.ok then Some r.result else None) replies in
  let ratios f = Stats.geomean (Array.to_list (Array.mapi (fun i r -> Option.bind r (f reqs.(i))) results)) in
  let width_ratio = ratios (fun q j -> Some (float_of_int (int_of "qubits" j) /. float_of_int q.in_qubits)) in
  let duration_ratio =
    ratios (fun q j ->
        let base =
          match q.kind with
          | Keyed k -> Hashtbl.find baseline_dt (k.bench, k.verb)
          | Fresh _ -> fresh_baseline
        in
        Some (float_of_int (int_of "duration_dt" j) /. float_of_int base))
  in
  if not args.trace then begin
    add "setup_s" setup_s "s";
    add_latency_metrics ~ok:!ok ~window lat;
    add "ok_share" (float_of_int !ok /. float_of_int n) "share";
    add "width_ratio" width_ratio "ratio";
    add "duration_ratio" duration_ratio "ratio";
    add "peak_rss_mb" rss "MB"
  end
  else begin
    let traced, handle_s, untraced_total, traced_total = Option.get traced_replay in
    let traced = Array.map reply_of traced in
    Array.iteri
      (fun i r ->
        if r.raw <> reference.(i).raw then
          violate "request %d: traced replay differs from the reference" i)
      traced;
    check_replay_time [ ("all requests", untraced_total, traced_total) ];
    let layers = new_layers () in
    fold_spans layers (Trace.take ());
    layer_report layers;
    let mean_where p xs =
      let sel = List.filter_map (fun (b, x) -> if p b then Some x else None) xs in
      Stats.mean (Array.of_list sel) *. 1000.
    in
    let handled = List.init n (fun i -> (traced.(i).hit, handle_s.(i))) in
    let fresh_bytes =
      Array.fold_left (fun a r -> match r.kind with Fresh s -> a + String.length s | Keyed _ -> a) 0 reqs
    in
    let parse_s = Option.value (Hashtbl.find_opt layers.self "quantum.parse") ~default:0. in
    let verify_verdicts =
      Array.to_list results
      |> List.mapi (fun i r -> (reqs.(i), r))
      |> List.filter_map (fun (q, r) ->
             match (q.kind, r) with
             | Keyed { verb = "verify"; _ }, Some j -> J.string_field "verdict" j
             | _ -> None)
    in
    let inconclusive =
      List.filter (fun v -> String.length v >= 12 && String.sub v 0 12 = "inconclusive") verify_verdicts
    in
    let sum_field k =
      float_of_int (Array.fold_left (fun a r -> match r with Some j -> a + int_of k j | None -> a) 0 results)
    in
    let sim_circuits =
      List.concat_map
        (fun (e : Benchmarks.Suite.entry) ->
          let input =
            match e.Benchmarks.Suite.kind with
            | Benchmarks.Suite.Regular -> P.Regular e.Benchmarks.Suite.circuit
            | Benchmarks.Suite.Commutable g -> P.Commutable g
          in
          let device = Hardware.Device.heavy_hex_for e.Benchmarks.Suite.circuit.C.num_qubits in
          List.map (fun s -> (P.compile device s input).P.physical) serve_strategies)
        benches
    in
    let mean_lat = Stats.mean lat *. 1000. in
    let mean_handle = Stats.mean handle_s *. 1000. in
    emit_per_layer
      (layer_values layers
      @ gc_values gc
      @ [
          ("quantum.parse.ms", layer_ms layers "quantum.parse");
          ("quantum.parse.mb_per_s", if parse_s > 0. then float_of_int fresh_bytes /. 1048576. /. parse_s else 0.);
          ("caqr.analyze.calls", delta counters0 counters1 "reuse.analyze.fresh" +. delta counters0 counters1 "reuse.analyze.incremental");
          ("caqr.qs.search_nodes", delta counters0 counters1 "qs.search.nodes");
          ("guard.budget_trips", delta counters0 counters1 "guard.budget.trips");
          ("caqr.reuse_pairs", sum_field "reuse_pairs");
          ("transpiler.route.swaps", sum_field "swaps");
          ( "verify.inconclusive_share",
            if verify_verdicts = [] then 0.
            else float_of_int (List.length inconclusive) /. float_of_int (List.length verify_verdicts) );
          ("sim.shots_per_s", sim_shots_per_s sim_circuits);
          ("serve.handle.hit_ms", mean_where Fun.id handled);
          ("serve.handle.miss_ms", mean_where not handled);
          ("serve.wire.ms", mean_lat -. mean_handle);
          ( "serve.cache.hit_ratio",
            let h = delta cache0 cache1 "hits" and m = delta cache0 cache1 "misses" in
            h /. Float.max 1. (h +. m) );
          ( "serve.cache.disk_hit_ratio",
            delta cache0 cache1 "disk_hits" /. Float.max 1. (delta cache0 cache1 "hits") );
          ("serve.cache.keyed_misses", float_of_int !keyed_misses);
          ("serve.cache.disk_evictions", delta cache0 cache1 "disk_evictions");
          ("trace.overhead_share", (traced_total /. untraced_total) -. 1.);
        ])
  end;
  finish ~args ~attempted:n ~ok:!ok ~calib_before ~measured_s:window

let () =
  let args = parse_args () in
  at_exit cleanup;
  (* A stopped run still stops its daemon. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  match args.workload with
  | "serve" -> run_serve args
  | _ -> run_compile_workload args
