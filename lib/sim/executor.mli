(** Shot-based circuit execution on the state-vector backend.

    Circuits with dynamic operations (mid-circuit measurement, reset,
    conditional X) are sampled shot by shot in the semantics the
    hardware gives the paper's transformed circuits: every Measure and
    Reset collapses the state onto an outcome drawn from its Born
    probability. Wide circuits are first compacted onto their active
    wires so a 27-qubit device circuit using 13 qubits simulates on 13.

    {b Shot grouping.} A shot reads its random stream only at Measure
    and Reset gates, one uniform each, in gate order. A batch therefore
    draws all of its shots' uniforms up front, shot-major — the same
    stream values a shot-by-shot loop would consume — and then walks the
    gates once per {e outcome path} rather than once per shot: shots
    that agree on every outcome so far share one state vector, and a
    group splits only where its shots' draws fall on both sides of the
    measured probability. After a mid-circuit measure and reset most
    shots follow a handful of paths, so a 512-shot run typically
    simulates a few dozen trajectories.

    {b Identity contract.} For every seed, shot count and [jobs] value,
    the counts are bit-for-bit what simulating each shot separately
    from |0...0> gives: each path applies the same float operations in
    the same order, and shots are added to {!Counts} in shot order. *)

(** [run ?jobs ~seed ~shots circuit] samples the classical register.

    Shots are drawn in fixed 256-shot batches whose RNG streams are pure
    functions of [(seed, batch index)] and fanned out over
    {!Exec.Pool}; the merged counts are byte-identical for every [jobs]
    value (default: {!Exec.Pool.default_jobs}). Each batch bumps the
    ["sim.shots"] counter by its shots, ["sim.trajectories"] by the
    distinct outcome paths it simulated and ["sim.replays"] by the
    paths it rebuilt from |0...0> because a state copy would have gone
    over its fixed memory budget. *)
val run : ?jobs:int -> seed:int -> shots:int -> Quantum.Circuit.t -> Counts.t

(** Does the circuit's only dynamic operation form a trailing block of
    measurements (no reset, no conditional X, no gate on a measured
    qubit)? Then its outcome distribution is shot-independent and can
    be read off one final state vector. *)
val only_final_measurements : Quantum.Circuit.t -> bool

(** Exact outcome distribution for circuits whose only dynamic operations
    are final measurements; falls back to 4096-shot sampling otherwise. *)
val distribution : seed:int -> Quantum.Circuit.t -> Counts.t

(** Expectation of [f register] under [run]. *)
val expectation : seed:int -> shots:int -> Quantum.Circuit.t -> (int -> float) -> float
