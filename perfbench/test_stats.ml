(* Pins the benchmark's own arithmetic: the tail rule, the failure-aware
   geometric mean, stratified Zipf counts and the self-time partition. *)

open Perfbench_core

let close = Alcotest.float 1e-9

let test_tail_rule () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (match Stats.tail xs with
   | Some t ->
     Alcotest.(check int) "pct" 90 t.Stats.pct;
     Alcotest.(check int) "beyond" 10 t.Stats.beyond;
     Alcotest.check close "value" 90. t.Stats.value
   | None -> Alcotest.fail "100 samples have a tail");
  (match Stats.tail (Array.init 25 float_of_int) with
   | Some t ->
     Alcotest.(check int) "pct of 25" 60 t.Stats.pct;
     Alcotest.(check int) "beyond of 25" 10 t.Stats.beyond
   | None -> Alcotest.fail "25 samples have a tail");
  (match Stats.tail (Array.init 432 float_of_int) with
   | Some t ->
     Alcotest.(check bool) "at least 10 beyond" true (t.Stats.beyond >= 10);
     (* one percentile higher would leave fewer than ten *)
     let rank = (((t.Stats.pct + 1) * 432) + 99) / 100 in
     Alcotest.(check bool) "highest" true (432 - rank < 10)
   | None -> Alcotest.fail "432 samples have a tail");
  Alcotest.(check bool)
    "10 samples have none" true
    (Stats.tail (Array.make 10 1.) = None)

let test_geomean () =
  Alcotest.check close "all ok" 2. (Stats.geomean [ Some 4.; Some 1. ]);
  Alcotest.check close "failed op counts 1.0" (sqrt 0.25)
    (Stats.geomean [ Some 0.25; None ]);
  Alcotest.check close "empty" 1. (Stats.geomean [])

let test_zipf () =
  List.iter
    (fun (n, block) ->
      let c = Stats.zipf_counts ~s:1. ~n ~block in
      Alcotest.(check int)
        (Printf.sprintf "n=%d block=%d sums" n block)
        block (Array.fold_left ( + ) 0 c);
      for i = 1 to n - 1 do
        Alcotest.(check bool) "non-increasing" true (c.(i) <= c.(i - 1))
      done)
    [ (135, 900); (135, 1); (7, 100); (1, 5); (135, 0) ];
  let c = Stats.zipf_counts ~s:1. ~n:2 ~block:3 in
  Alcotest.(check (array int)) "2:1" [| 2; 1 |] c

let sp id parent name t0 t1 = { Trace.id; parent; name; op = 0; t0; t1 }

let total l = List.fold_left (fun a (_, x) -> a +. x) 0. l

let get name l =
  List.fold_left (fun a (n, x) -> if n = name then a +. x else a) 0. l

let test_partition () =
  (* root 0..10; a pool section 2..8 whose two tasks overlap (2..7 and
     3..8 on two domains); a task has its own child 4..6. *)
  let spans =
    [
      sp 0 (-1) "op" 0. 10.;
      sp 1 0 "exec.pool" 2. 8.;
      sp 2 1 "route" 2. 7.;
      sp 3 1 "route" 3. 8.;
      sp 4 3 "esp" 4. 6.;
      sp 5 0 "verify" 8. 9.;
    ]
  in
  let st = Trace.self_times spans in
  Alcotest.check close "partition of the root" 10. (total st);
  Alcotest.check close "root self" 3. (get "op" st);
  Alcotest.check close "pool self" 0. (get "exec.pool" st);
  (* tasks sum 10 s over a 6 s cover: scaled by 0.6 *)
  Alcotest.check close "route" 4.8 (get "route" st);
  Alcotest.check close "esp" 1.2 (get "esp" st);
  Alcotest.check close "verify" 1. (get "verify" st);
  let seq = [ sp 0 (-1) "op" 0. 4.; sp 1 0 "a" 0. 1.; sp 2 0 "b" 1. 3. ] in
  let st = Trace.self_times seq in
  Alcotest.check close "sequential children unscaled" 2. (get "b" st);
  Alcotest.check close "sequential total" 4. (total st)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "geomean with failures" `Quick test_geomean;
          Alcotest.test_case "stratified zipf" `Quick test_zipf;
          Alcotest.test_case "self-time partition" `Quick test_partition;
        ] );
    ]
