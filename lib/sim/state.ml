type t = { n : int; re : float array; im : float array }

(* The dense vector is 2 * 8 bytes per amplitude: 26 qubits is already
   a 1 GiB state, so the ceiling is absolute regardless of the
   configured cap. *)
let hard_max_qubits = 26
let default_max_qubits = 24

let cap = Atomic.make default_max_qubits

let set_max_qubits n = Atomic.set cap (max 1 (min hard_max_qubits n))
let max_qubits () = Atomic.get cap

(* The cap check allocates nothing: an over-wide request is refused
   before the 2^n arrays exist, as a typed error rather than an OOM. *)
let make n =
  let c = Atomic.get cap in
  if n < 0 then
    Error
      (Guard.Error.v ~stage:"sim.state" ~site:"sim.alloc"
         (Printf.sprintf "negative width %d" n))
  else if n > c then
    Error
      (Guard.Error.v ~stage:"sim.state" ~site:"sim.alloc"
         (Printf.sprintf
            "%d qubits exceeds the simulator cap of %d (2^%d amplitudes)" n c n))
  else begin
    let size = 1 lsl n in
    let re = Array.make size 0. and im = Array.make size 0. in
    re.(0) <- 1.;
    Ok { n; re; im }
  end

let init n =
  match make n with
  | Ok st -> st
  | Error _ -> invalid_arg "State.init: unsupported width"

let num_qubits st = st.n

let copy st = { n = st.n; re = Array.copy st.re; im = Array.copy st.im }

let reinit st =
  Array.fill st.re 0 (Array.length st.re) 0.;
  Array.fill st.im 0 (Array.length st.im) 0.;
  st.re.(0) <- 1.

let norm2 st =
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
  done;
  !acc

let amplitude st i = (st.re.(i), st.im.(i))

let probability st i = (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))

let probabilities st = Array.init (Array.length st.re) (probability st)

(* The kernels below walk the amplitudes block by block instead of
   testing every index: with [bit = 1 lsl q], the indices whose bit [q]
   is clear are [base + j] for [base] a multiple of [2 * bit] and
   [j < bit], and their partners are [base + j + bit]. Each kernel does,
   per amplitude, the same float operations as the full 2x2 product
   would; the specialized ones only skip terms that multiply by an exact
   0 or 1, which can change the sign of a zero and nothing else. *)

type complex = float * float

(* Apply the 2x2 complex matrix [[a b][c d]] to qubit q. *)
let apply_matrix st (ar, ai) (br, bi) (cr, ci) (dr, di) q =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let base = ref 0 in
  while !base < size do
    for i0 = !base to !base + bit - 1 do
      let i1 = i0 + bit in
      let r0 = re.(i0) and m0 = im.(i0) in
      let r1 = re.(i1) and m1 = im.(i1) in
      re.(i0) <- (ar *. r0) -. (ai *. m0) +. (br *. r1) -. (bi *. m1);
      im.(i0) <- (ar *. m0) +. (ai *. r0) +. (br *. m1) +. (bi *. r1);
      re.(i1) <- (cr *. r0) -. (ci *. m0) +. (dr *. r1) -. (di *. m1);
      im.(i1) <- (cr *. m0) +. (ci *. r0) +. (dr *. m1) +. (di *. r1)
    done;
    base := !base + (2 * bit)
  done

(* [[1 0][0 d]]: only the |1> half moves. *)
let apply_phase st (dr, di) q =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let base = ref bit in
  while !base < size do
    for i1 = !base to !base + bit - 1 do
      let r1 = re.(i1) and m1 = im.(i1) in
      re.(i1) <- (dr *. r1) -. (di *. m1);
      im.(i1) <- (dr *. m1) +. (di *. r1)
    done;
    base := !base + (2 * bit)
  done

(* X: exchange the |0> and |1> halves. *)
let apply_x st q =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let base = ref 0 in
  while !base < size do
    for i0 = !base to !base + bit - 1 do
      let i1 = i0 + bit in
      let r = re.(i0) and m = im.(i0) in
      re.(i0) <- re.(i1);
      im.(i0) <- im.(i1);
      re.(i1) <- r;
      im.(i1) <- m
    done;
    base := !base + (2 * bit)
  done

let inv_sqrt2 = 1. /. sqrt 2.

let matrix g =
  let z = (0., 0.) and o = (1., 0.) in
  match g with
  | Quantum.Gate.H ->
    ((inv_sqrt2, 0.), (inv_sqrt2, 0.), (inv_sqrt2, 0.), (-.inv_sqrt2, 0.))
  | Quantum.Gate.X -> (z, o, o, z)
  | Quantum.Gate.Y -> (z, (0., -1.), (0., 1.), z)
  | Quantum.Gate.Z -> (o, z, z, (-1., 0.))
  | Quantum.Gate.S -> (o, z, z, (0., 1.))
  | Quantum.Gate.Sdg -> (o, z, z, (0., -1.))
  | Quantum.Gate.T -> (o, z, z, (inv_sqrt2, inv_sqrt2))
  | Quantum.Gate.Tdg -> (o, z, z, (inv_sqrt2, -.inv_sqrt2))
  | Quantum.Gate.Sx -> ((0.5, 0.5), (0.5, -0.5), (0.5, -0.5), (0.5, 0.5))
  | Quantum.Gate.Rx th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    ((c, 0.), (0., -.s), (0., -.s), (c, 0.))
  | Quantum.Gate.Ry th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    ((c, 0.), (-.s, 0.), (s, 0.), (c, 0.))
  | Quantum.Gate.Rz th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    ((c, -.s), z, z, (c, s))
  | Quantum.Gate.Phase th -> (o, z, z, (cos th, sin th))

let apply_one_q st g q =
  match g with
  | Quantum.Gate.X -> apply_x st q
  | Quantum.Gate.Z | Quantum.Gate.S | Quantum.Gate.Sdg | Quantum.Gate.T
  | Quantum.Gate.Tdg | Quantum.Gate.Phase _ ->
    let _, _, _, d = matrix g in
    apply_phase st d q
  | Quantum.Gate.H | Quantum.Gate.Y | Quantum.Gate.Sx | Quantum.Gate.Rx _
  | Quantum.Gate.Ry _ | Quantum.Gate.Rz _ ->
    let a, b, c, d = matrix g in
    apply_matrix st a b c d q

(* Two-qubit kernels visit the [size / 4] indices with both bits clear:
   the [k]-th of them is [k] with a zero bit inserted at qubit [lo] and
   then at qubit [hi] ([lo < hi]). The insertion is written out in each
   loop because ocamlopt does not inline a helper there. *)

let apply_cx st ctrl tgt =
  if ctrl = tgt then invalid_arg "State.apply_cx: equal operands";
  let cb = 1 lsl ctrl and tb = 1 lsl tgt in
  let lo = min ctrl tgt and hi = max ctrl tgt in
  let lm = (1 lsl lo) - 1 and hm = (1 lsl hi) - 1 in
  let re = st.re and im = st.im in
  (* Swap amplitudes of |..c=1,t=0..> and |..c=1,t=1..>. *)
  for k = 0 to (Array.length re lsr 2) - 1 do
    let k = ((k lsr lo) lsl (lo + 1)) lor (k land lm) in
    let i = ((k lsr hi) lsl (hi + 1)) lor (k land hm) lor cb in
    let j = i lor tb in
    let r = re.(i) and m = im.(i) in
    re.(i) <- re.(j);
    im.(i) <- im.(j);
    re.(j) <- r;
    im.(j) <- m
  done

let apply_cz st a b =
  if a = b then invalid_arg "State.apply_cz: equal operands";
  let both = (1 lsl a) lor (1 lsl b) in
  let lo = min a b and hi = max a b in
  let lm = (1 lsl lo) - 1 and hm = (1 lsl hi) - 1 in
  let re = st.re and im = st.im in
  for k = 0 to (Array.length re lsr 2) - 1 do
    let k = ((k lsr lo) lsl (lo + 1)) lor (k land lm) in
    let i = ((k lsr hi) lsl (hi + 1)) lor (k land hm) lor both in
    re.(i) <- -.re.(i);
    im.(i) <- -.im.(i)
  done

let apply_rzz st th a b =
  if a = b then invalid_arg "State.apply_rzz: equal operands";
  let ab = 1 lsl a and bb = 1 lsl b in
  let lo = min a b and hi = max a b in
  let lm = (1 lsl lo) - 1 and hm = (1 lsl hi) - 1 in
  let c = cos (th /. 2.) and s = sin (th /. 2.) in
  let re = st.re and im = st.im in
  (* Phase exp(-i th/2) when Z.Z eigenvalue is +1 (equal bits), else
     exp(+i th/2): the sign is -s on |00> and |11>, +s on |01> and
     |10>. *)
  for k = 0 to (Array.length re lsr 2) - 1 do
    let k = ((k lsr lo) lsl (lo + 1)) lor (k land lm) in
    let i00 = ((k lsr hi) lsl (hi + 1)) lor (k land hm) in
    let i01 = i00 lor ab and i10 = i00 lor bb and i11 = i00 lor ab lor bb in
    let r = re.(i00) and m = im.(i00) in
    re.(i00) <- (c *. r) -. (-.s *. m);
    im.(i00) <- (c *. m) +. (-.s *. r);
    let r = re.(i01) and m = im.(i01) in
    re.(i01) <- (c *. r) -. (s *. m);
    im.(i01) <- (c *. m) +. (s *. r);
    let r = re.(i10) and m = im.(i10) in
    re.(i10) <- (c *. r) -. (s *. m);
    im.(i10) <- (c *. m) +. (s *. r);
    let r = re.(i11) and m = im.(i11) in
    re.(i11) <- (c *. r) -. (-.s *. m);
    im.(i11) <- (c *. m) +. (-.s *. r)
  done

let apply_swap st a b =
  if a = b then invalid_arg "State.apply_swap: equal operands";
  let ab = 1 lsl a and bb = 1 lsl b in
  let lo = min a b and hi = max a b in
  let lm = (1 lsl lo) - 1 and hm = (1 lsl hi) - 1 in
  let re = st.re and im = st.im in
  for k = 0 to (Array.length re lsr 2) - 1 do
    let k = ((k lsr lo) lsl (lo + 1)) lor (k land lm) in
    let i0 = ((k lsr hi) lsl (hi + 1)) lor (k land hm) in
    let i = i0 lor ab and j = i0 lor bb in
    let r = re.(i) and m = im.(i) in
    re.(i) <- re.(j);
    im.(i) <- im.(j);
    re.(j) <- r;
    im.(j) <- m
  done

let apply_pauli st p q =
  match p with
  | 0 -> ()
  | 1 -> apply_one_q st Quantum.Gate.X q
  | 2 -> apply_one_q st Quantum.Gate.Y q
  | 3 -> apply_one_q st Quantum.Gate.Z q
  | _ -> invalid_arg "State.apply_pauli"

(* Sums run over the |1> (or kept) half in increasing index order, the
   order the per-index loop used, so the rounding is the same. *)
let prob_one st q =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let acc = ref 0. in
  let base = ref bit in
  while !base < size do
    for i = !base to !base + bit - 1 do
      acc := !acc +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
    done;
    base := !base + (2 * bit)
  done;
  !acc

let collapse st q outcome =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let keep = if outcome = 1 then bit else 0 and drop = if outcome = 1 then 0 else bit in
  let acc = ref 0. in
  let base = ref 0 in
  while !base < size do
    for j = !base to !base + bit - 1 do
      let i = j + keep in
      acc := !acc +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i));
      re.(j + drop) <- 0.;
      im.(j + drop) <- 0.
    done;
    base := !base + (2 * bit)
  done;
  let scale = 1. /. sqrt (Float.max !acc 1e-300) in
  base := 0;
  while !base < size do
    for j = !base to !base + bit - 1 do
      let i = j + keep in
      re.(i) <- re.(i) *. scale;
      im.(i) <- im.(i) *. scale
    done;
    base := !base + (2 * bit)
  done

let measure rng st q =
  let p1 = prob_one st q in
  let outcome = if Random.State.float rng 1. < p1 then 1 else 0 in
  collapse st q outcome;
  outcome

let reset rng st q =
  let outcome = measure rng st q in
  if outcome = 1 then apply_one_q st Quantum.Gate.X q
