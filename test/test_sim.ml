(* Unit tests for the state-vector simulator, counts, and the noise model. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let floatc = Alcotest.float 1e-9
let float6 = Alcotest.float 1e-6

module G = Quantum.Gate
module B = Quantum.Circuit.Builder

let rng () = Random.State.make [| 42 |]

(* ---- State ---- *)

let test_init_ground () =
  let st = Sim.State.init 3 in
  check floatc "norm" 1. (Sim.State.norm2 st);
  check floatc "all zero amp" 1. (Sim.State.probability st 0);
  check int "width" 3 (Sim.State.num_qubits st)

let test_x_flips () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 1;
  check floatc "state |10>" 1. (Sim.State.probability st 0b10)

let test_h_superposition () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.H 0;
  check float6 "p0" 0.5 (Sim.State.probability st 0);
  check float6 "p1" 0.5 (Sim.State.probability st 1);
  Sim.State.apply_one_q st G.H 0;
  check float6 "h self inverse" 1. (Sim.State.probability st 0)

let test_rotation_identities () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st (G.Rx Float.pi) 0;
  (* Rx(pi) = -iX: probability of |1> is 1. *)
  check float6 "rx pi = x" 1. (Sim.State.probability st 1);
  let st2 = Sim.State.init 1 in
  Sim.State.apply_one_q st2 G.S 0;
  Sim.State.apply_one_q st2 G.Sdg 0;
  check float6 "s sdg = id" 1. (Sim.State.probability st2 0);
  let st3 = Sim.State.init 1 in
  Sim.State.apply_one_q st3 G.T 0;
  Sim.State.apply_one_q st3 G.T 0;
  Sim.State.apply_one_q st3 G.Sdg 0;
  check float6 "tt = s" 1. (Sim.State.probability st3 0)

let test_sx_squared_is_x () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.Sx 0;
  Sim.State.apply_one_q st G.Sx 0;
  check float6 "sx^2 = x" 1. (Sim.State.probability st 1)

let test_bell_state () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.apply_cx st 0 1;
  check float6 "p00" 0.5 (Sim.State.probability st 0b00);
  check float6 "p11" 0.5 (Sim.State.probability st 0b11);
  check float6 "p01" 0. (Sim.State.probability st 0b01);
  check floatc "norm preserved" 1. (Sim.State.norm2 st)

let test_cz_phase () =
  (* CZ on |11> flips sign; check via interference: H CZ H on q1 with q0=1. *)
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 0;
  Sim.State.apply_one_q st G.H 1;
  Sim.State.apply_cz st 0 1;
  Sim.State.apply_one_q st G.H 1;
  (* CZ acts as Z on q1 (since q0 = 1): HZH = X -> q1 becomes 1. *)
  check float6 "|11>" 1. (Sim.State.probability st 0b11)

let test_swap () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 0;
  Sim.State.apply_swap st 0 1;
  check float6 "swapped to |10>" 1. (Sim.State.probability st 0b10)

let test_rzz_diagonal_phase () =
  (* exp(-i th/2 ZZ): on |00> it is a global phase; probabilities unchanged. *)
  let st = Sim.State.init 2 in
  Sim.State.apply_rzz st 0.7 0 1;
  check float6 "stays |00|" 1. (Sim.State.probability st 0);
  (* Interference check: rzz(pi) between H-basis qubits acts like CZ up to
     local rotations; verify norm + nontrivial action. *)
  let st2 = Sim.State.init 2 in
  Sim.State.apply_one_q st2 G.H 0;
  Sim.State.apply_one_q st2 G.H 1;
  Sim.State.apply_rzz st2 Float.pi 0 1;
  Sim.State.apply_one_q st2 G.H 0;
  Sim.State.apply_one_q st2 G.H 1;
  check floatc "norm" 1. (Sim.State.norm2 st2);
  check bool "acted nontrivially" true (Sim.State.probability st2 0 < 0.9)

let test_measure_deterministic () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 1;
  check int "measure 1" 1 (Sim.State.measure (rng ()) st 1);
  check int "measure 0" 0 (Sim.State.measure (rng ()) st 0);
  check floatc "norm after collapse" 1. (Sim.State.norm2 st)

let test_measure_collapses () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.apply_cx st 0 1;
  let r = rng () in
  let m0 = Sim.State.measure r st 0 in
  let m1 = Sim.State.measure r st 1 in
  check int "bell correlation" m0 m1

let test_reset_forces_ground () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.reset (rng ()) st 0;
  check float6 "ground" 0. (Sim.State.prob_one st 0)

let test_pauli_channel () =
  let st = Sim.State.init 1 in
  Sim.State.apply_pauli st 1 0;
  check float6 "x" 1. (Sim.State.prob_one st 0);
  Sim.State.apply_pauli st 2 0;
  check float6 "y flips back" 0. (Sim.State.prob_one st 0);
  Sim.State.apply_pauli st 0 0;
  check float6 "identity" 0. (Sim.State.prob_one st 0)

let test_width_guard () =
  Alcotest.check_raises "too wide"
    (Invalid_argument "State.init: unsupported width") (fun () ->
      ignore (Sim.State.init 30))

(* ---- Counts ---- *)

let test_counts_basic () =
  let c = Sim.Counts.create ~num_clbits:2 in
  Sim.Counts.add c 0;
  Sim.Counts.add c 3;
  Sim.Counts.add c 3;
  check int "total" 3 (Sim.Counts.total c);
  check int "get 3" 2 (Sim.Counts.get c 3);
  check (Alcotest.option int) "top" (Some 3) (Sim.Counts.top c);
  check (Alcotest.float 1e-9) "success rate" (2. /. 3.) (Sim.Counts.success_rate c 3)

let test_tvd_axioms () =
  let mk l =
    let c = Sim.Counts.create ~num_clbits:2 in
    List.iter (Sim.Counts.add c) l;
    c
  in
  let a = mk [ 0; 0; 1; 1 ] and b = mk [ 0; 0; 1; 1 ] in
  check floatc "identical -> 0" 0. (Sim.Counts.tvd a b);
  let c = mk [ 2; 2; 2; 2 ] in
  check floatc "disjoint -> 1" 1. (Sim.Counts.tvd a c);
  check floatc "symmetric" (Sim.Counts.tvd a c) (Sim.Counts.tvd c a)

let test_expectation () =
  let c = Sim.Counts.create ~num_clbits:2 in
  Sim.Counts.add c 0;
  Sim.Counts.add c 3;
  check floatc "mean of f" 1.5 (Sim.Counts.expectation c float_of_int)

let test_of_probs () =
  let c = Sim.Counts.of_probs ~num_clbits:1 ~shots:1000 [ (0, 0.25); (1, 0.75) ] in
  check int "scaled" 250 (Sim.Counts.get c 0);
  check int "total" 1000 (Sim.Counts.total c)

(* ---- Executor ---- *)

let test_executor_bell () =
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.measure b 1 1;
  let counts = Sim.Executor.run ~seed:1 ~shots:500 (B.build b) in
  check int "only 00 and 11" 500 (Sim.Counts.get counts 0 + Sim.Counts.get counts 3);
  check bool "both outcomes seen" true
    (Sim.Counts.get counts 0 > 150 && Sim.Counts.get counts 3 > 150)

let test_executor_dynamic_teleport_like () =
  (* Measure + conditional X moves a bit: prepare q0 = 1, measure into c0,
     conditionally flip q1 -> q1 reads 1. *)
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 1;
  B.measure b 1 1;
  let counts = Sim.Executor.run ~seed:2 ~shots:50 (B.build b) in
  check int "c = 11 always" 50 (Sim.Counts.get counts 0b11)

let test_executor_reset_reuse () =
  (* The Fig. 1 idiom: q0 carries |1>, is measured and conditionally reset,
     then reused; second measurement must read 0 deterministically. *)
  let b = B.create ~num_qubits:1 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 0;
  B.measure b 0 1;
  let counts = Sim.Executor.run ~seed:3 ~shots:50 (B.build b) in
  check int "first 1, second 0" 50 (Sim.Counts.get counts 0b01)

let test_distribution_exact () =
  let b = B.create ~num_qubits:1 ~num_clbits:1 in
  B.h b 0;
  B.measure b 0 0;
  let d = Sim.Executor.distribution ~seed:1 (B.build b) in
  check bool "half-half" true
    (Float.abs (Sim.Counts.success_rate d 0 -. 0.5) < 0.01)

let test_executor_compacts_wide_circuits () =
  (* A 27-wire circuit using only wires 20 and 26 must simulate fine. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 20;
  B.cx b 20 26;
  B.measure b 20 0;
  B.measure b 26 1;
  let counts = Sim.Executor.run ~seed:4 ~shots:100 (B.build b) in
  check int "correlated" 100 (Sim.Counts.get counts 0 + Sim.Counts.get counts 3)

(* ---- Shot-grouped sampling vs the per-shot reference ---- *)

(* The sampler [Executor.run] replaced: every shot re-simulated from
   |0...0>, drawing from the batch stream at each Measure/Reset as it
   goes. Same batches, same per-batch stream derivation. *)
let reference_run ~seed ~shots circuit =
  let circuit = fst (Quantum.Circuit.compact_qubits circuit) in
  let rng_of_prng prng =
    let word () = Int64.to_int (Int64.logand (Exec.Prng.bits64 prng) 0x3FFFFFFFL) in
    Random.State.make [| word (); word (); 0xe7ec |]
  in
  let run_shot rng =
    let st = Sim.State.init circuit.Quantum.Circuit.num_qubits in
    let creg = ref 0 in
    Array.iter
      (fun g ->
        match g.G.kind with
        | G.One_q (g, q) -> Sim.State.apply_one_q st g q
        | G.Cx (a, b) -> Sim.State.apply_cx st a b
        | G.Cz (a, b) -> Sim.State.apply_cz st a b
        | G.Rzz (th, a, b) -> Sim.State.apply_rzz st th a b
        | G.Swap (a, b) -> Sim.State.apply_swap st a b
        | G.Measure (q, c) ->
          let o = Sim.State.measure rng st q in
          creg := (!creg land lnot (1 lsl c)) lor (o lsl c)
        | G.Reset q -> Sim.State.reset rng st q
        | G.If_x (c, q) -> if !creg land (1 lsl c) <> 0 then Sim.State.apply_one_q st G.X q
        | G.Barrier _ -> ())
      circuit.Quantum.Circuit.gates;
    !creg
  in
  let sizes = List.init ((shots + 255) / 256) (fun i -> min 256 (shots - (i * 256))) in
  Exec.Pool.map_seeded ~jobs:1 ~seed
    (fun prng size ->
      let rng = rng_of_prng prng in
      let counts = Sim.Counts.create ~num_clbits:circuit.Quantum.Circuit.num_clbits in
      for _ = 1 to size do
        Sim.Counts.add counts (run_shot rng)
      done;
      counts)
    sizes
  |> List.fold_left Sim.Counts.merge
       (Sim.Counts.create ~num_clbits:circuit.Quantum.Circuit.num_clbits)

(* Inexact weights, so the expectation's float sum depends on the order
   the histogram is folded in. *)
let weight k = 1. /. float_of_int (k + 3)

(* Byte identity: the sorted histogram, the bits of an expectation (sums
   in Hashtbl order, so it sees the insertion sequence) and [top]. *)
let check_same_counts name expected got =
  check
    (Alcotest.list (Alcotest.pair int int))
    (name ^ ": counts") (Sim.Counts.to_list expected) (Sim.Counts.to_list got);
  check Alcotest.int64 (name ^ ": expectation bits")
    (Int64.bits_of_float (Sim.Counts.expectation expected weight))
    (Int64.bits_of_float (Sim.Counts.expectation got weight));
  check (Alcotest.option int) (name ^ ": top") (Sim.Counts.top expected)
    (Sim.Counts.top got)

let check_against_reference name ~seed ~shots c =
  check_same_counts name (reference_run ~seed ~shots c)
    (Sim.Executor.run ~jobs:1 ~seed ~shots c)

let test_grouped_matches_reference_fuzz () =
  let cfg = { Fuzz.Gen.default with Fuzz.Gen.max_qubits = 7; max_gates = 60 } in
  let root = Exec.Prng.make 0x5eed in
  for i = 0 to 299 do
    let c = Fuzz.Gen.circuit cfg (Exec.Prng.split root i) in
    List.iter
      (fun seed ->
        check_against_reference (Printf.sprintf "fuzz %d seed %d" i seed) ~seed ~shots:300 c)
      [ 1; 77 ]
  done

let qs_artifacts name =
  let e = Benchmarks.Suite.find name in
  let input =
    match e.Benchmarks.Suite.kind with
    | Benchmarks.Suite.Regular -> Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit
    | Benchmarks.Suite.Commutable g -> Caqr.Pipeline.Commutable g
  in
  let device = Hardware.Device.heavy_hex_for e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits in
  let r = Caqr.Pipeline.compile device Caqr.Pipeline.Qs_max_reuse input in
  [ ("logical", r.Caqr.Pipeline.logical); ("physical", r.Caqr.Pipeline.physical) ]

let test_grouped_matches_reference_table1 () =
  List.iter
    (fun bench ->
      List.iter
        (fun (side, c) ->
          check_against_reference (bench ^ " " ^ side) ~seed:3 ~shots:512 c)
        (qs_artifacts bench))
    [ "Multiply_13"; "QAOA10-0.3" ]

(* 18 qubits make a state 4 MiB, so the executor's copy budget holds
   only two copies: the deeper splits of this circuit's six mid-circuit
   fair-coin measurements must be replayed from |0...0>. The last four
   measurements read X-prepared qubits, so a replay that does not start
   from |0...0> reads 0 where the per-shot run reads 1. *)
let test_grouped_replay_fallback () =
  let n = 18 in
  let b = B.create ~num_qubits:n ~num_clbits:10 in
  let rng = Random.State.make [| 18 |] in
  for q = 0 to n - 1 do
    if q < 6 then B.h b q else B.x b q
  done;
  for c = 0 to 5 do
    B.measure b c c;
    B.reset b c;
    B.rx b (Random.State.float rng 3.) c
  done;
  for c = 6 to 9 do
    B.measure b c c
  done;
  let c = B.build b in
  let replays = Obs.Metrics.count "sim.replays" in
  check_against_reference "18 qubits" ~seed:5 ~shots:32 c;
  check bool "replay path taken" true (Obs.Metrics.count "sim.replays" > replays)

let test_grouped_counters () =
  (* A fair coin read twice around a reset: every 256-shot batch follows
     all four outcome paths (00, 01, 10, 11) and replays none. *)
  let b = B.create ~num_qubits:1 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.reset b 0;
  B.h b 0;
  B.measure b 0 1;
  let c = B.build b in
  let before = List.map Obs.Metrics.count [ "sim.shots"; "sim.trajectories"; "sim.replays" ] in
  ignore (Sim.Executor.run ~jobs:2 ~seed:9 ~shots:512 c);
  let after = List.map Obs.Metrics.count [ "sim.shots"; "sim.trajectories"; "sim.replays" ] in
  check (Alcotest.list int) "shots, trajectories, replays" [ 512; 8; 0 ]
    (List.map2 ( - ) after before)

(* ---- Kernels ---- *)

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x51a7; Hashtbl.hash name |]) t

(* A generic state: random rotations and entanglers from |0...0>. *)
let random_state n seed =
  let rng = Random.State.make [| seed |] in
  let st = Sim.State.init n in
  for _ = 1 to 3 do
    for q = 0 to n - 1 do
      Sim.State.apply_one_q st (G.Ry (Random.State.float rng 6.)) q;
      Sim.State.apply_one_q st (G.Rz (Random.State.float rng 6.)) q
    done;
    for q = 0 to n - 2 do
      Sim.State.apply_cx st q (q + 1)
    done
  done;
  st

let one_q_gates th =
  [ G.H; G.X; G.Y; G.Z; G.S; G.Sdg; G.T; G.Tdg; G.Sx; G.Rx th; G.Ry th; G.Rz th; G.Phase th ]

let prob_bits st = Array.map Int64.bits_of_float (Sim.State.probabilities st)

let same_amplitudes a b =
  let ok = ref true in
  for i = 0 to (1 lsl Sim.State.num_qubits a) - 1 do
    (* [=] identifies 0. and -0.: the sign of a zero is the one
       difference the specialized kernels are allowed. *)
    if Sim.State.amplitude a i <> Sim.State.amplitude b i then ok := false
  done;
  !ok

let prop_one_q_kernels =
  QCheck.Test.make ~name:"one-qubit kernels = apply_matrix of the gate's matrix" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 0 10_000) (float_range (-7.) 7.))
    (fun (n, seed, th) ->
      List.for_all
        (fun g ->
          List.for_all
            (fun q ->
              let st = random_state n seed in
              let reference = Sim.State.copy st in
              Sim.State.apply_one_q st g q;
              let a, b, c, d = Sim.State.matrix g in
              Sim.State.apply_matrix reference a b c d q;
              prob_bits st = prob_bits reference && same_amplitudes st reference)
            (List.init n Fun.id))
        (one_q_gates th))

(* The per-index loops the stride kernels replaced. *)
let reference_two_q st i_pairs f =
  let size = 1 lsl Sim.State.num_qubits st in
  let re = Array.init size (fun i -> fst (Sim.State.amplitude st i)) in
  let im = Array.init size (fun i -> snd (Sim.State.amplitude st i)) in
  for i = 0 to size - 1 do
    if i_pairs i then f re im i
  done;
  (re, im)

let prop_two_q_kernels =
  QCheck.Test.make ~name:"two-qubit stride kernels = per-index loops" ~count:200
    QCheck.(quad (int_range 2 5) (int_range 0 10_000) (float_range (-7.) 7.) (pair small_nat small_nat))
    (fun (n, seed, th, (a, b)) ->
      let a = a mod n and b = b mod n in
      QCheck.assume (a <> b);
      let ab = 1 lsl a and bb = 1 lsl b in
      let swap re im i j =
        let r = re.(i) and m = im.(i) in
        re.(i) <- re.(j);
        im.(i) <- im.(j);
        re.(j) <- r;
        im.(j) <- m
      in
      let c = cos (th /. 2.) and s = sin (th /. 2.) in
      let cases =
        [
          ( (fun st -> Sim.State.apply_cx st a b),
            (fun i -> i land ab <> 0 && i land bb = 0),
            fun re im i -> swap re im i (i lor bb) );
          ( (fun st -> Sim.State.apply_cz st a b),
            (fun i -> i land ab <> 0 && i land bb <> 0),
            fun re im i ->
              re.(i) <- -.re.(i);
              im.(i) <- -.im.(i) );
          ( (fun st -> Sim.State.apply_swap st a b),
            (fun i -> i land ab <> 0 && i land bb = 0),
            fun re im i -> swap re im i (i lxor ab lxor bb) );
          ( (fun st -> Sim.State.apply_rzz st th a b),
            (fun _ -> true),
            fun re im i ->
              let sign = if (i land ab <> 0) = (i land bb <> 0) then -.s else s in
              let r = re.(i) and m = im.(i) in
              re.(i) <- (c *. r) -. (sign *. m);
              im.(i) <- (c *. m) +. (sign *. r) );
        ]
      in
      List.for_all
        (fun (kernel, sel, f) ->
          let st = random_state n seed in
          let re, im = reference_two_q st sel f in
          kernel st;
          Array.for_all Fun.id
            (Array.mapi (fun i r -> Sim.State.amplitude st i = (r, im.(i))) re))
        cases)

let prop_measure_kernels =
  QCheck.Test.make ~name:"prob_one and collapse = per-index loops" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 0 10_000) (pair small_nat bool))
    (fun (n, seed, (q, one)) ->
      let q = q mod n and outcome = if one then 1 else 0 in
      let st = random_state n seed in
      let bit = 1 lsl q in
      let size = 1 lsl n in
      let sum sel =
        let acc = ref 0. in
        for i = 0 to size - 1 do
          if sel i then begin
            let r, m = Sim.State.amplitude st i in
            acc := !acc +. (r *. r) +. (m *. m)
          end
        done;
        !acc
      in
      let keep i = (i land bit <> 0) = (outcome = 1) in
      let p1 = sum (fun i -> i land bit <> 0) and acc = sum keep in
      let scale = 1. /. sqrt (Float.max acc 1e-300) in
      let expected =
        Array.init size (fun i ->
            if keep i then
              let r, m = Sim.State.amplitude st i in
              (r *. scale, m *. scale)
            else (0., 0.))
      in
      let p1_bits = Int64.bits_of_float (Sim.State.prob_one st q) in
      Sim.State.collapse st q outcome;
      p1_bits = Int64.bits_of_float p1
      && Array.for_all Fun.id (Array.mapi (fun i e -> Sim.State.amplitude st i = e) expected))

(* ---- Noise ---- *)

let device () = Hardware.Device.mumbai

let bv_physical () =
  (* BV-3 placed on adjacent Mumbai qubits 0,1,2 with 2 as ancilla... use
     1 as the ancilla since 0-1 and 1-2 are links. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 0;
  B.h b 2;
  B.x b 1;
  B.h b 1;
  B.cx b 0 1;
  B.cx b 2 1;
  B.h b 0;
  B.h b 2;
  B.measure b 0 0;
  B.measure b 2 1;
  B.build b

let test_noise_preserves_trend () =
  let c = bv_physical () in
  let noisy = Sim.Noise.run ~device:(device ()) ~seed:5 ~shots:400 c in
  (* The ideal outcome 0b11 must still dominate but with some errors. *)
  let sr = Sim.Counts.success_rate noisy 0b11 in
  check bool "dominates" true (sr > 0.5);
  check bool "noisy" true (sr < 1.0)

let test_noise_tvd_positive () =
  let c = bv_physical () in
  let tvd = Sim.Noise.tvd_vs_ideal ~device:(device ()) ~seed:6 ~shots:400 c in
  check bool "tvd in (0, 1)" true (tvd > 0. && tvd < 1.)

let test_noise_ideal_device_is_noiseless () =
  let dev = Hardware.Device.ideal Hardware.Topology.falcon_27 in
  let c = bv_physical () in
  let counts = Sim.Noise.run ~device:dev ~seed:7 ~shots:200 c in
  check int "deterministic" 200 (Sim.Counts.get counts 0b11)

let test_longer_idle_means_more_error () =
  (* Same computation, but one version wastes time with long idle gaps on
     the measured qubit: its success rate should not be better. *)
  let quick =
    let b = B.create ~num_qubits:27 ~num_clbits:1 in
    B.x b 0;
    B.measure b 0 0;
    B.build b
  in
  let slow =
    let b = B.create ~num_qubits:27 ~num_clbits:1 in
    B.x b 0;
    (* Busy-wait on partner qubits forces idle accumulation on 0 through
       the schedule only if they share wires; instead insert many 1q gates
       on qubit 0 itself paired with inverse. *)
    for _ = 1 to 40 do
      B.x b 0;
      B.x b 0
    done;
    B.measure b 0 0;
    B.build b
  in
  let dev = device () in
  let sr c = Sim.Counts.success_rate (Sim.Noise.run ~device:dev ~seed:8 ~shots:600 c) 1 in
  check bool "more gates, not better" true (sr slow <= sr quick +. 0.02)

let test_noise_reset_path () =
  (* H; measure; reset; measure — the post-reset read is pinned to 0 up
     to readout error, even though the first read is a fair coin. This
     exercises the reset channel under Mumbai's nonzero idle/readout
     noise, which no other test covers. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.reset b 0;
  B.measure b 0 1;
  let c = B.build b in
  let counts = Sim.Noise.run ~device:(device ()) ~seed:9 ~shots:600 c in
  let zeros =
    Sim.Counts.expectation counts (fun o -> if o land 2 = 0 then 1.0 else 0.0)
  in
  check bool "post-reset reads 0 w.h.p." true (zeros > 0.9);
  let ones_first =
    Sim.Counts.expectation counts (fun o -> float_of_int (o land 1))
  in
  check bool "pre-reset read stays a fair coin" true
    (ones_first > 0.35 && ones_first < 0.65)

let test_noise_if_x_path () =
  (* X; measure; If_x — the classically-controlled correction flips the
     qubit back, so (c0=1, c1=0) dominates; noise makes it imperfect.
     Exercises the conditional-X channel under nonzero noise. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 0;
  B.measure b 0 1;
  let c = B.build b in
  let counts = Sim.Noise.run ~device:(device ()) ~seed:10 ~shots:600 c in
  let sr = Sim.Counts.success_rate counts 0b01 in
  check bool "corrected outcome dominates" true (sr > 0.8);
  check bool "noise leaves a residue" true (sr < 1.0)

let () =
  Alcotest.run "sim"
    [
      ( "state",
        [
          Alcotest.test_case "init" `Quick test_init_ground;
          Alcotest.test_case "x" `Quick test_x_flips;
          Alcotest.test_case "h" `Quick test_h_superposition;
          Alcotest.test_case "rotations" `Quick test_rotation_identities;
          Alcotest.test_case "sx" `Quick test_sx_squared_is_x;
          Alcotest.test_case "bell" `Quick test_bell_state;
          Alcotest.test_case "cz" `Quick test_cz_phase;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "rzz" `Quick test_rzz_diagonal_phase;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "measure collapse" `Quick test_measure_collapses;
          Alcotest.test_case "reset" `Quick test_reset_forces_ground;
          Alcotest.test_case "pauli" `Quick test_pauli_channel;
          Alcotest.test_case "width guard" `Quick test_width_guard;
        ] );
      ( "counts",
        [
          Alcotest.test_case "basic" `Quick test_counts_basic;
          Alcotest.test_case "tvd axioms" `Quick test_tvd_axioms;
          Alcotest.test_case "expectation" `Quick test_expectation;
          Alcotest.test_case "of probs" `Quick test_of_probs;
        ] );
      ( "executor",
        [
          Alcotest.test_case "bell sampling" `Quick test_executor_bell;
          Alcotest.test_case "dynamic conditional" `Quick test_executor_dynamic_teleport_like;
          Alcotest.test_case "reset and reuse" `Quick test_executor_reset_reuse;
          Alcotest.test_case "exact distribution" `Quick test_distribution_exact;
          Alcotest.test_case "wide circuit compaction" `Quick test_executor_compacts_wide_circuits;
          Alcotest.test_case "grouped = per-shot: fuzz circuits" `Quick test_grouped_matches_reference_fuzz;
          Alcotest.test_case "grouped = per-shot: table1 artifacts" `Quick test_grouped_matches_reference_table1;
          Alcotest.test_case "grouped = per-shot: replay fallback" `Quick test_grouped_replay_fallback;
          Alcotest.test_case "work counters" `Quick test_grouped_counters;
        ] );
      ( "kernels",
        List.map to_alcotest [ prop_one_q_kernels; prop_two_q_kernels; prop_measure_kernels ] );
      ( "noise",
        [
          Alcotest.test_case "trend preserved" `Quick test_noise_preserves_trend;
          Alcotest.test_case "tvd positive" `Quick test_noise_tvd_positive;
          Alcotest.test_case "ideal device" `Quick test_noise_ideal_device_is_noiseless;
          Alcotest.test_case "idle accumulates" `Quick test_longer_idle_means_more_error;
          Alcotest.test_case "reset under noise" `Quick test_noise_reset_path;
          Alcotest.test_case "conditional X under noise" `Quick test_noise_if_x_path;
        ] );
    ]
