(* Tests for the history recorder and the safety/regularity/atomicity
   checkers — the definitions of paper §2.2 under test. *)

let equal = String.equal

(* Build a history from a compact script:
     `W (k_value, t_inv, t_resp option)` / `R (reader, result, t_inv, t_resp)`
   Stamps are assigned by event time order. *)
let build script =
  let r = Histories.Recorder.create () in
  (* events: (time, action) *)
  let events = ref [] in
  List.iter
    (fun item ->
      match item with
      | `W (v, t_inv, t_resp) ->
          let h = ref None in
          events := (t_inv, fun () -> h := Some (Histories.Recorder.invoke_write r ~time:t_inv v)) :: !events;
          Option.iter
            (fun t ->
              events :=
                (t, fun () -> Histories.Recorder.respond_write r (Option.get !h) ~time:t)
                :: !events)
            t_resp
      | `R (j, result, t_inv, t_resp) ->
          let h = ref None in
          events := (t_inv, fun () -> h := Some (Histories.Recorder.invoke_read r ~time:t_inv ~reader:j)) :: !events;
          Option.iter
            (fun t ->
              events :=
                (t, fun () ->
                    Histories.Recorder.respond_read r (Option.get !h) ~time:t result)
                :: !events)
            t_resp)
    script;
  List.iter
    (fun (_, f) -> f ())
    (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !events));
  Histories.Recorder.ops r

let test_recorder_basics () =
  let r = Histories.Recorder.create () in
  let w = Histories.Recorder.invoke_write r ~time:0 "a" in
  Histories.Recorder.respond_write r w ~time:5;
  let rd = Histories.Recorder.invoke_read r ~time:10 ~reader:1 in
  Histories.Recorder.respond_read r rd ~time:15 (Histories.Op.Value "a");
  let ops = Histories.Recorder.ops r in
  let count p ops = List.length (List.filter p ops) in
  Alcotest.(check int) "writes" 1 (count Histories.Op.is_write ops);
  Alcotest.(check int) "reads" 1 (count Histories.Op.is_read ops);
  Alcotest.(check int) "complete reads" 1
    (count Histories.Op.is_read (Histories.Op.completed ops));
  match ops with
  | [ w_op; r_op ] ->
      Alcotest.(check bool) "write precedes read" true (Histories.Op.precedes w_op r_op);
      Alcotest.(check bool) "not concurrent" false
        (Histories.Op.concurrent w_op r_op)
  | _ -> Alcotest.fail "expected two ops"

let test_recorder_rejects_double_invoke () =
  let r = Histories.Recorder.create () in
  let _ = Histories.Recorder.invoke_write r ~time:0 "a" in
  Alcotest.(check bool) "second write rejected" true
    (try
       ignore (Histories.Recorder.invoke_write r ~time:1 "b");
       false
     with Invalid_argument _ -> true);
  let _ = Histories.Recorder.invoke_read r ~time:0 ~reader:1 in
  Alcotest.(check bool) "second read same reader rejected" true
    (try
       ignore (Histories.Recorder.invoke_read r ~time:1 ~reader:1);
       false
     with Invalid_argument _ -> true);
  (* a different reader is fine *)
  ignore (Histories.Recorder.invoke_read r ~time:1 ~reader:2)

let test_incomplete_ops_visible () =
  let r = Histories.Recorder.create () in
  let _ = Histories.Recorder.invoke_write r ~time:0 "a" in
  match Histories.Recorder.ops r with
  | [ op ] -> Alcotest.(check bool) "incomplete" false (Histories.Op.is_complete op)
  | _ -> Alcotest.fail "expected one op"

let test_concurrency_relation () =
  let ops =
    build [ `W ("a", 0, Some 10); `R (1, Histories.Op.Value "a", 5, Some 15) ]
  in
  match ops with
  | [ w; r ] ->
      Alcotest.(check bool) "overlapping are concurrent" true
        (Histories.Op.concurrent w r)
  | _ -> Alcotest.fail "expected two ops"

(* --- safety ----------------------------------------------------------- *)

let test_safety_ok_sequential () =
  let ops =
    build
      [
        `W ("a", 0, Some 10);
        `R (1, Histories.Op.Value "a", 20, Some 30);
        `W ("b", 40, Some 50);
        `R (1, Histories.Op.Value "b", 60, Some 70);
      ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Histories.Checks.check_safety ~equal ops))

let test_safety_bottom_before_writes () =
  let ops = build [ `R (1, Histories.Op.Bottom, 0, Some 5); `W ("a", 10, Some 20) ] in
  Alcotest.(check bool) "bottom before any write is safe" true
    (Histories.Checks.is_safe ~equal ops)

let test_safety_violation_stale () =
  let ops =
    build
      [
        `W ("a", 0, Some 10);
        `W ("b", 20, Some 30);
        `R (1, Histories.Op.Value "a", 40, Some 50);
      ]
  in
  match Histories.Checks.check_safety ~equal ops with
  | [ v ] -> Alcotest.(check string) "rule" "safety" v.Histories.Checks.rule
  | _ -> Alcotest.fail "expected exactly one violation"

let test_safety_violation_unwritten () =
  let ops = build [ `R (1, Histories.Op.Value "ghost", 0, Some 5) ] in
  Alcotest.(check int) "ghost value flagged" 1
    (List.length (Histories.Checks.check_safety ~equal ops))

let test_safety_violation_bottom_after_write () =
  let ops = build [ `W ("a", 0, Some 10); `R (1, Histories.Op.Bottom, 20, Some 30) ] in
  Alcotest.(check int) "bottom after write flagged" 1
    (List.length (Histories.Checks.check_safety ~equal ops))

let test_safety_concurrent_read_unconstrained () =
  let ops =
    build [ `W ("a", 0, Some 100); `R (1, Histories.Op.Value "anything", 10, Some 20) ]
  in
  Alcotest.(check bool) "concurrent read may return garbage" true
    (Histories.Checks.is_safe ~equal ops)

let test_safety_read_concurrent_with_incomplete_write () =
  (* An incomplete write is concurrent with every read invoked after it. *)
  let ops = build [ `W ("a", 0, None); `R (1, Histories.Op.Value "junk", 10, Some 20) ] in
  Alcotest.(check bool) "unconstrained" true (Histories.Checks.is_safe ~equal ops)

(* --- regularity -------------------------------------------------------- *)

let test_regularity_allows_concurrent_fresh () =
  let ops =
    build [ `W ("a", 0, Some 10); `W ("b", 20, Some 100); `R (1, Histories.Op.Value "b", 30, Some 40) ]
  in
  Alcotest.(check bool) "concurrent write's value ok" true
    (Histories.Checks.is_regular ~equal ops)

let test_regularity_rejects_unwritten () =
  let ops =
    build [ `W ("a", 0, Some 100); `R (1, Histories.Op.Value "junk", 10, Some 20) ]
  in
  (match Histories.Checks.check_regularity ~equal ops with
  | [ v ] ->
      Alcotest.(check string) "rule" "regularity(1)" v.Histories.Checks.rule
  | _ -> Alcotest.fail "expected exactly one violation");
  Alcotest.(check bool) "safe (concurrent) but not regular" true
    (Histories.Checks.is_safe ~equal ops)

let test_regularity_rejects_stale () =
  let ops =
    build
      [
        `W ("a", 0, Some 10);
        `W ("b", 20, Some 30);
        `R (1, Histories.Op.Value "a", 40, Some 50);
      ]
  in
  match Histories.Checks.check_regularity ~equal ops with
  | [ v ] ->
      Alcotest.(check string) "rule" "regularity(2)" v.Histories.Checks.rule
  | _ -> Alcotest.fail "expected exactly one violation"

let test_regularity_rejects_future () =
  (* Read completes before the write of the returned value is invoked. *)
  let ops =
    build [ `R (1, Histories.Op.Value "a", 0, Some 5); `W ("a", 10, Some 20) ]
  in
  match Histories.Checks.check_regularity ~equal ops with
  | [ v ] ->
      Alcotest.(check string) "rule" "regularity(3)" v.Histories.Checks.rule
  | _ -> Alcotest.fail "expected exactly one violation"

let test_regularity_incomplete_write_value_allowed () =
  let ops = build [ `W ("a", 0, None); `R (1, Histories.Op.Value "a", 10, Some 20) ] in
  Alcotest.(check bool) "value of concurrent incomplete write ok" true
    (Histories.Checks.is_regular ~equal ops)

(* --- atomicity --------------------------------------------------------- *)

let test_atomicity_detects_new_old_inversion () =
  let ops =
    build
      [
        `W ("a", 0, Some 10);
        `W ("b", 20, Some 100);
        (* both reads concurrent with wr2; regular either way *)
        `R (1, Histories.Op.Value "b", 30, Some 40);
        `R (2, Histories.Op.Value "a", 50, Some 60);
      ]
  in
  Alcotest.(check bool) "regular" true (Histories.Checks.is_regular ~equal ops);
  match Histories.Checks.check_atomicity ~equal ops with
  | [ v ] ->
      Alcotest.(check string) "rule" "atomicity(new-old inversion)"
        v.Histories.Checks.rule
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

let test_atomicity_ok_monotone () =
  let ops =
    build
      [
        `W ("a", 0, Some 10);
        `W ("b", 20, Some 100);
        `R (1, Histories.Op.Value "a", 30, Some 40);
        `R (2, Histories.Op.Value "b", 50, Some 60);
      ]
  in
  Alcotest.(check bool) "monotone reads atomic" true
    (Histories.Checks.is_atomic ~equal ops)

let test_atomicity_requires_unique_values () =
  let ops = build [ `W ("a", 0, Some 10); `W ("a", 20, Some 30) ] in
  Alcotest.(check bool) "duplicate write values rejected" true
    (try
       ignore (Histories.Checks.check_atomicity ~equal ops);
       (* no reads: fine, ambiguity only matters when observed *)
       true
     with Invalid_argument _ -> true)

let test_atomicity_implies_regular_on_examples () =
  let histories =
    [
      build [ `W ("a", 0, Some 10); `R (1, Histories.Op.Value "a", 20, Some 30) ];
      build [ `R (1, Histories.Op.Bottom, 0, Some 5) ];
    ]
  in
  List.iter
    (fun ops ->
      if Histories.Checks.is_atomic ~equal ops then begin
        Alcotest.(check bool) "atomic => regular" true
          (Histories.Checks.is_regular ~equal ops);
        Alcotest.(check bool) "regular => safe" true
          (Histories.Checks.is_safe ~equal ops)
      end)
    histories

let suite =
  ( "histories",
    [
      Alcotest.test_case "recorder basics" `Quick test_recorder_basics;
      Alcotest.test_case "recorder rejects double invoke" `Quick
        test_recorder_rejects_double_invoke;
      Alcotest.test_case "incomplete ops visible" `Quick test_incomplete_ops_visible;
      Alcotest.test_case "concurrency relation" `Quick test_concurrency_relation;
      Alcotest.test_case "safety ok sequential" `Quick test_safety_ok_sequential;
      Alcotest.test_case "safety bottom before writes" `Quick
        test_safety_bottom_before_writes;
      Alcotest.test_case "safety flags stale" `Quick test_safety_violation_stale;
      Alcotest.test_case "safety flags unwritten" `Quick
        test_safety_violation_unwritten;
      Alcotest.test_case "safety flags bottom after write" `Quick
        test_safety_violation_bottom_after_write;
      Alcotest.test_case "safety concurrent unconstrained" `Quick
        test_safety_concurrent_read_unconstrained;
      Alcotest.test_case "safety with incomplete write" `Quick
        test_safety_read_concurrent_with_incomplete_write;
      Alcotest.test_case "regularity concurrent fresh ok" `Quick
        test_regularity_allows_concurrent_fresh;
      Alcotest.test_case "regularity flags unwritten" `Quick
        test_regularity_rejects_unwritten;
      Alcotest.test_case "regularity flags stale" `Quick test_regularity_rejects_stale;
      Alcotest.test_case "regularity flags future" `Quick
        test_regularity_rejects_future;
      Alcotest.test_case "regularity incomplete write value" `Quick
        test_regularity_incomplete_write_value_allowed;
      Alcotest.test_case "atomicity new-old inversion" `Quick
        test_atomicity_detects_new_old_inversion;
      Alcotest.test_case "atomicity monotone ok" `Quick test_atomicity_ok_monotone;
      Alcotest.test_case "atomicity unique values" `Quick
        test_atomicity_requires_unique_values;
      Alcotest.test_case "atomic => regular => safe" `Quick
        test_atomicity_implies_regular_on_examples;
    ] )
