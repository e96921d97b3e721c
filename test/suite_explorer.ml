(* Tests for the bounded model checker (E5 in miniature): exhaustive
   delivery-order exploration on small scenarios. *)

module ES = Mc.Explorer.Make (Core.Proto_safe)
module ER = Mc.Explorer.Make (Core.Proto_regular.Plain)
module EF = Mc.Explorer.Make (Baseline.Naive_fast)
module EA = Mc.Explorer.Make (Baseline.Abd.Regular)

module EG = Mc.Explorer.Make (Core.Proto_regular_gc.Make (struct
  let readers = 1
end))

let cfg_core = Quorum.Config.optimal ~t:1 ~b:1

(* The protocol's row of the table: its claim and round bounds. *)
let contract = Fault.Campaign.contract

let forge_naive : EF.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        match m with
        | Baseline.Naive_fast.Read_ack { rid; ts; v = _ } ->
            [
              Baseline.Naive_fast.Read_ack
                { rid; ts = ts + 10; v = Core.Value.v "ghost" };
            ]
        | m -> [ m ]);
  }

let forge_safe : ES.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        let forged_pair () =
          let tsval = Core.Tsval.make ~ts:9 ~v:(Core.Value.v "ghost") in
          (tsval, Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty)
        in
        match m with
        | Core.Messages.Read1_ack { tsr; _ } ->
            let pw, w = forged_pair () in
            [ Core.Messages.Read1_ack { tsr; pw; w } ]
        | Core.Messages.Read2_ack { tsr; _ } ->
            let pw, w = forged_pair () in
            [ Core.Messages.Read2_ack { tsr; pw; w } ]
        | m -> [ m ]);
  }

let test_safe_read_only_byz_exhaustive () =
  let r =
    ES.check ~max_states:100_000 ~contract:(contract Safe)
      {
        ES.cfg = cfg_core;
        writes = [];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [ (1, forge_safe) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "explored non-trivially" true (r.explored > 100)

let test_safe_read_only_crash_exhaustive () =
  let r =
    ES.check ~max_states:100_000 ~contract:(contract Safe)
      {
        ES.cfg = cfg_core;
        writes = [];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [];
        crashed = [ 4 ];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "no violations (incl. wait-freedom)" 0
    (List.length r.violations)

let test_safe_sequential_write_read_bounded () =
  (* The full space fits in ~750k states; explore a 150k-state prefix in
     the quick suite (the bench harness runs it exhaustively). *)
  let r =
    ES.check ~max_states:150_000 ~contract:(contract Safe)
      {
        ES.cfg = cfg_core;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [];
        crashed = [];
      }
  in
  Alcotest.(check int) "no violations in explored prefix" 0
    (List.length r.violations)

let test_naive_violation_found_automatically () =
  let r =
    EF.check ~max_states:100_000 ~contract:(contract Naive_fast)
      {
        EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [ (1, forge_naive) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check bool) "violation found" true (List.length r.violations > 0);
  Alcotest.(check bool) "it is a safety violation" true
    (List.exists (fun (v : EF.violation) -> v.kind = "safety") r.violations)

let test_naive_run5_shape_found () =
  let r =
    EF.check ~max_states:50_000 ~contract:(contract Naive_fast)
      {
        EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [ (1, forge_naive) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "violation without any write" true
    (List.length r.violations > 0)

let test_naive_clean_without_byz () =
  let r =
    EF.check ~max_states:200_000 ~contract:(contract Naive_fast)
      {
        EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [];
        crashed = [ 2 ];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "crash-only is clean" 0 (List.length r.violations)

let test_abd_atomicity_check_exhaustive () =
  let r =
    EA.check ~max_states:400_000 ~contract:(contract Abd)
      {
        EA.cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [];
        crashed = [];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "regular in all interleavings" 0 (List.length r.violations)

let test_regular_sequential_write_read_bounded () =
  (* ~758k states exhaustively in the bench harness; a 150k-state prefix
     here keeps the suite fast. *)
  let r =
    ER.check ~max_states:150_000 ~contract:(contract Regular)
      {
        ER.cfg = cfg_core;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [];
        crashed = [];
      }
  in
  Alcotest.(check int) "no violations in explored prefix" 0
    (List.length r.violations)

let test_regular_read_only_exhaustive () =
  let r =
    ER.check ~max_states:150_000 ~contract:(contract Regular)
      {
        ER.cfg = cfg_core;
        writes = [];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [];
        crashed = [ 2 ];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "no violations" 0 (List.length r.violations)

let test_regular_gc_fast_reads_byz_bounded () =
  (* S = 2t+2b+1, so reads may decide on round 1 and then send no Read2:
     the second read runs against objects that never saw the first
     read's round 2, concurrently with a write, while object 1 forges a
     <9, "ghost"> entry into every history it returns. *)
  let r =
    EG.check ~max_states:60_000 ~contract:(contract Regular_gc)
      {
        EG.cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 2) ];
        sequential = false;
        byz = [ (1, { EG.rewrite = Suite_random_walks.corrupt_history_acks }) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "reached terminal states" true (r.terminals > 0);
  Alcotest.(check int) "no violations (incl. wait-freedom)" 0
    (List.length r.violations)

(* The same at S = 2t+b+1, where a read decides on round 1 only if the
   lie leaves its top candidate safe.  One read against each lie, at
   object 1 and at object 4, is small enough to exhaust. *)
let test_regular_gc_optimal_byz_read_exhaustive () =
  let module G = Suite_random_walks.EG in
  List.iter
    (fun liar ->
      List.iter
        (fun (lie, byz) ->
          let r =
            G.check ~max_states:50_000 ~contract:(contract Regular_gc)
              {
                G.cfg = cfg_core;
                writes = [];
                reads = [ (1, 1) ];
                sequential = false;
                byz = [ (liar, byz) ];
                crashed = [];
              }
          in
          let what = Printf.sprintf "%s at object %d" lie liar in
          Alcotest.(check bool) (what ^ ": exhaustive") false r.truncated;
          Alcotest.(check int) (what ^ ": no violations") 0
            (List.length r.violations))
        Suite_random_walks.lies)
    [ 1; 4 ]

(* A write concurrent with the read while object 1 forges a high entry:
   too large to exhaust, so a 60k-state prefix. *)
let test_regular_gc_optimal_byz_bounded () =
  let module G = Suite_random_walks.EG in
  let r =
    G.check ~max_states:60_000 ~contract:(contract Regular_gc)
      {
        G.cfg = cfg_core;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [ (1, List.assoc "forge a high entry" Suite_random_walks.lies) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "reached terminal states" true (r.terminals > 0);
  Alcotest.(check int) "no violations (incl. wait-freedom)" 0
    (List.length r.violations)

let test_wait_freedom_detects_stuck_protocols () =
  (* Crash one more object than the budget allows: the quorum can never
     form, reads hang, and the checker must report it. *)
  let r =
    ES.check ~max_states:50_000 ~contract:(contract Safe)
      {
        ES.cfg = cfg_core;
        writes = [];
        reads = [ (1, 1) ];
        sequential = false;
        byz = [];
        crashed = [ 1; 2 ];  (* two crashes, t = 1 *)
      }
  in
  Alcotest.(check bool) "wait-freedom violation reported" true
    (List.exists (fun (v : ES.violation) -> v.kind = "wait-freedom") r.violations)

(* Safe's reader, reporting one round more than it ran: it counts the
   rounds it sends (two, since it sends READ2 even when round 1's
   replies decide) and reports a third. *)
module Overcounting_safe = struct
  module S = Core.Proto_safe

  include (
    S : Core.Protocol_intf.S with type msg = S.msg and type reader := S.reader)

  type reader = S.reader * int  (* and the rounds sent in this read *)

  let reader_init ~cfg ~j = (S.reader_init ~cfg ~j, 0)

  let reader_start (r, _) =
    Result.map (fun (r, m) -> ((r, 1), m)) (S.reader_start r)

  let reader_on_msg (r, sent) ~obj m =
    let r, events = S.reader_on_msg r ~obj m in
    let sent =
      sent
      + List.length
          (List.filter
             (function Core.Events.Broadcast _ -> true | _ -> false)
             events)
    in
    ( (r, sent),
      List.map
        (function
          | Core.Events.Read_done d ->
              Core.Events.Read_done { d with rounds = sent + 1 }
          | e -> e)
        events )

  let reader_on_reconnect (r, sent) = (S.reader_on_reconnect r, sent)
end

module EO = Mc.Explorer.Make (Overcounting_safe)

(* The explorer holds each terminal history's reported rounds to the
   contract's bounds, as the campaign judge does. *)
let test_over_reported_round_is_caught () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:0 in
  let writes = [ Core.Value.v "a" ] and reads = [ (1, 1) ] in
  let r =
    EO.check ~max_states:200_000 ~contract:(contract Safe)
      { EO.cfg; writes; reads; sequential = true; byz = []; crashed = [] }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check bool) "a rounds violation" true
    (List.exists (fun (v : EO.violation) -> v.kind = "rounds") r.violations);
  let r =
    ES.check ~max_states:200_000 ~contract:(contract Safe)
      { ES.cfg; writes; reads; sequential = true; byz = []; crashed = [] }
  in
  Alcotest.(check bool) "safe itself: exhaustive" false r.truncated;
  Alcotest.(check int) "safe itself: no violations" 0 (List.length r.violations)

let suite =
  ( "explorer",
    [
      Alcotest.test_case "safe read-only + byz exhaustive" `Quick
        test_safe_read_only_byz_exhaustive;
      Alcotest.test_case "safe read-only + crash exhaustive" `Quick
        test_safe_read_only_crash_exhaustive;
      Alcotest.test_case "safe sequential W;R bounded" `Slow
        test_safe_sequential_write_read_bounded;
      Alcotest.test_case "naive violation found" `Quick
        test_naive_violation_found_automatically;
      Alcotest.test_case "naive run5 shape found" `Quick test_naive_run5_shape_found;
      Alcotest.test_case "naive clean without byz" `Slow test_naive_clean_without_byz;
      Alcotest.test_case "abd regular exhaustive" `Slow
        test_abd_atomicity_check_exhaustive;
      Alcotest.test_case "regular read-only exhaustive" `Quick
        test_regular_read_only_exhaustive;
      Alcotest.test_case "regular sequential W;R bounded" `Slow
        test_regular_sequential_write_read_bounded;
      Alcotest.test_case "wait-freedom detector" `Quick
        test_wait_freedom_detects_stuck_protocols;
      Alcotest.test_case "regular-gc fast reads + byz bounded" `Quick
        test_regular_gc_fast_reads_byz_bounded;
      Alcotest.test_case "regular-gc at 2t+b+1: one read vs each lie" `Quick
        test_regular_gc_optimal_byz_read_exhaustive;
      Alcotest.test_case "regular-gc at 2t+b+1: W||R + forge bounded" `Quick
        test_regular_gc_optimal_byz_bounded;
      Alcotest.test_case "an over-reported round is caught" `Quick
        test_over_reported_round_is_caught;
    ] )
