(* Every gate but Measure and Reset: the part of a shot that draws no
   randomness. *)
let apply_unitary st creg kind =
  match kind with
  | Quantum.Gate.One_q (g, q) -> State.apply_one_q st g q
  | Quantum.Gate.Cx (a, b) -> State.apply_cx st a b
  | Quantum.Gate.Cz (a, b) -> State.apply_cz st a b
  | Quantum.Gate.Rzz (th, a, b) -> State.apply_rzz st th a b
  | Quantum.Gate.Swap (a, b) -> State.apply_swap st a b
  | Quantum.Gate.If_x (c, q) ->
    if creg land (1 lsl c) <> 0 then State.apply_one_q st Quantum.Gate.X q
  | Quantum.Gate.Barrier _ -> ()
  | Quantum.Gate.Measure _ | Quantum.Gate.Reset _ ->
    invalid_arg "Executor.apply_unitary: measurement"

(* Project qubit [q] of a Measure/Reset onto [outcome], exactly as
   [State.measure]/[State.reset] do after their draw; returns the new
   classical register. *)
let settle st creg kind outcome =
  match kind with
  | Quantum.Gate.Measure (q, c) ->
    State.collapse st q outcome;
    (creg land lnot (1 lsl c)) lor (outcome lsl c)
  | Quantum.Gate.Reset q ->
    State.collapse st q outcome;
    if outcome = 1 then State.apply_one_q st Quantum.Gate.X q;
    creg
  | _ -> invalid_arg "Executor.settle: not a measurement"

let is_draw = function
  | Quantum.Gate.Measure _ | Quantum.Gate.Reset _ -> true
  | _ -> false

let compact c = fst (Quantum.Circuit.compact_qubits c)

(* Shots are sampled in fixed-size batches. Batch [i]'s RNG is a pure
   function of (seed, i) — via the splittable stream the pool hands each
   task — so the merged counts are byte-identical for every [jobs]
   value, and identical again to the jobs=1 run. The batch size is a
   constant, NOT derived from [jobs]: deriving it from [jobs] would
   change the stream partition and break the determinism contract. *)
let shots_per_batch = 256

let rng_of_prng prng =
  let word () = Int64.to_int (Int64.logand (Exec.Prng.bits64 prng) 0x3FFFFFFFL) in
  Random.State.make [| word (); word (); 0xe7ec |]

(* Bytes of state copies a batch may hold beside its working state. A
   branch that would go over it is replayed from |0...0> instead of
   copied, which yields the same floats, so this constant trades memory
   for time and never changes an output. At 8 MiB a batch of up to 16
   qubits copies freely; from 20 qubits up every split replays. *)
let copy_budget_bytes = 8 lsl 20

let stage = "sim.executor"

(* One batch of shot-grouped trajectory sampling. [draws.(s * m + j)] is
   the uniform shot [s] draws at the circuit's [j]-th Measure/Reset.
   Shots that drew the same outcomes so far share one state: a group
   walks the gates once, and at a measurement it splits into the shots
   whose draw falls under [prob_one] and the rest. The smaller side
   recurses on a copy (or, over the copy budget, is replayed later along
   its recorded outcomes) and the larger continues in place, so at most
   [1 + log2 shots_per_batch] states are alive. Returns each shot's
   classical register, the number of distinct outcome paths and the
   number of branches replayed. *)
let sample_batch (c : Quantum.Circuit.t) ~m draws size =
  let gates = Array.map (fun g -> g.Quantum.Gate.kind) c.gates in
  let ng = Array.length gates in
  let regs = Array.make size 0 in
  let trajectories = ref 0 and replays = ref 0 in
  (* Two float arrays of 2^n amplitudes. *)
  let copy_bytes = 16 lsl c.num_qubits in
  let live_bytes = ref 0 in
  (* Rebuild the state a group reaches just before gate [upto], given
     its outcomes at every earlier Measure/Reset, oldest first. *)
  let replay st outcomes upto =
    State.reinit st;
    let creg = ref 0 and rest = ref outcomes in
    for gi = 0 to upto - 1 do
      let kind = gates.(gi) in
      if is_draw kind then begin
        creg := settle st !creg kind (List.hd !rest);
        rest := List.tl !rest
      end
      else apply_unitary st !creg kind
    done;
    !creg
  in
  let rec walk st gi k creg path shots =
    Guard.Budget.checkpoint ~stage ~site:"sim.segment";
    let gi = ref gi and k = ref k and creg = ref creg in
    let path = ref path and shots = ref shots in
    let deferred = ref [] in
    while !gi < ng do
      (match gates.(!gi) with
       | (Quantum.Gate.Measure (q, _) | Quantum.Gate.Reset q) as kind ->
         let p1 = State.prob_one st q in
         let ones, zeros = List.partition (fun s -> draws.((s * m) + !k) < p1) !shots in
         let outcome =
           match (ones, zeros) with
           | [], _ -> 0
           | _, [] -> 1
           | _ ->
             let small, sub, rest =
               if List.length ones < List.length zeros then (1, ones, zeros)
               else (0, zeros, ones)
             in
             if !live_bytes + copy_bytes <= copy_budget_bytes then begin
               let st' = State.copy st in
               live_bytes := !live_bytes + copy_bytes;
               let creg' = settle st' !creg kind small in
               walk st' (!gi + 1) (!k + 1) creg' (small :: !path) sub;
               live_bytes := !live_bytes - copy_bytes
             end
             else deferred := (small :: !path, !gi + 1, !k + 1, sub) :: !deferred;
             shots := rest;
             1 - small
         in
         creg := settle st !creg kind outcome;
         path := outcome :: !path;
         incr k;
         Guard.Budget.checkpoint ~stage ~site:"sim.segment"
       | kind -> apply_unitary st !creg kind);
      incr gi
    done;
    incr trajectories;
    List.iter (fun s -> regs.(s) <- !creg) !shots;
    (* This group is done with [st]: replay the branches that did not
       fit the copy budget into it, oldest split first. *)
    List.iter
      (fun (path, gi, k, sub) ->
        incr replays;
        let creg = replay st (List.rev path) gi in
        walk st gi k creg path sub)
      (List.rev !deferred)
  in
  walk (State.init c.num_qubits) 0 0 0 [] (List.init size Fun.id);
  (regs, !trajectories, !replays)

let run ?jobs ~seed ~shots circuit =
  let circuit = compact circuit in
  if shots <= 0 then Counts.create ~num_clbits:circuit.num_clbits
  else begin
    let m =
      Array.fold_left
        (fun n g -> if is_draw g.Quantum.Gate.kind then n + 1 else n)
        0 circuit.gates
    in
    let batches = (shots + shots_per_batch - 1) / shots_per_batch in
    let sizes =
      List.init batches (fun i ->
          min shots_per_batch (shots - (i * shots_per_batch)))
    in
    let parts =
      Exec.Pool.map_seeded ?jobs ~seed
        (fun prng size ->
          let rng = rng_of_prng prng in
          (* A shot draws once per Measure/Reset, in gate order, and
             nothing else reads [rng]: drawing the batch's uniforms
             shot-major up front consumes the stream exactly as
             simulating the shots one after another did. *)
          let draws = Array.make (size * m) 0. in
          for s = 0 to size - 1 do
            Guard.Inject.hit "sim.shot";
            Guard.Budget.checkpoint ~stage ~site:"sim.shot";
            for j = 0 to m - 1 do
              draws.((s * m) + j) <- Random.State.float rng 1.
            done
          done;
          let regs, trajectories, replays = sample_batch circuit ~m draws size in
          let counts = Counts.create ~num_clbits:circuit.num_clbits in
          Array.iter (Counts.add counts) regs;
          Obs.Metrics.incr ~by:size "sim.shots";
          Obs.Metrics.incr ~by:trajectories "sim.trajectories";
          Obs.Metrics.incr ~by:replays "sim.replays";
          counts)
        sizes
    in
    List.fold_left Counts.merge
      (Counts.create ~num_clbits:circuit.num_clbits)
      parts
  end

(* Dynamic ops other than a trailing block of measurements make the
   distribution shot-dependent. *)
let only_final_measurements (c : Quantum.Circuit.t) =
  let seen_measure = Array.make (max 1 c.num_qubits) false in
  let ok = ref true in
  Array.iter
    (fun g ->
      match g.Quantum.Gate.kind with
      | Quantum.Gate.Measure (q, _) -> seen_measure.(q) <- true
      | Quantum.Gate.Reset _ | Quantum.Gate.If_x _ -> ok := false
      | k -> List.iter (fun q -> if seen_measure.(q) then ok := false) (Quantum.Gate.qubits k))
    c.gates;
  !ok

let distribution ~seed circuit =
  let circuit = compact circuit in
  if not (only_final_measurements circuit) then run ~seed ~shots:4096 circuit
  else begin
    let st = State.init circuit.num_qubits in
    (* clbit <- qubit wiring of the final measurements *)
    let wiring = ref [] in
    Array.iter
      (fun g ->
        match g.Quantum.Gate.kind with
        | Quantum.Gate.Measure (q, c) -> wiring := (q, c) :: !wiring
        | k -> apply_unitary st 0 k)
      circuit.gates;
    let probs = State.probabilities st in
    let table = Hashtbl.create 64 in
    Array.iteri
      (fun basis p ->
        if p > 1e-12 then begin
          let outcome =
            List.fold_left
              (fun acc (q, c) ->
                if basis land (1 lsl q) <> 0 then acc lor (1 lsl c) else acc)
              0 !wiring
          in
          let cur = Option.value ~default:0. (Hashtbl.find_opt table outcome) in
          Hashtbl.replace table outcome (cur +. p)
        end)
      probs;
    Counts.of_probs ~num_clbits:circuit.num_clbits ~shots:1_000_000
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  end

let expectation ~seed ~shots circuit f =
  Counts.expectation (run ~seed ~shots circuit) f
