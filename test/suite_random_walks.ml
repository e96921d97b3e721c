(* Tests for the Monte-Carlo schedule sampler: scenarios too large to
   exhaust still get meaningful coverage, and the sampler finds the
   known naive-fast violation quickly. *)

module ES = Mc.Explorer.Make (Core.Proto_safe)
module ER = Mc.Explorer.Make (Core.Proto_regular.Plain)
module EF = Mc.Explorer.Make (Baseline.Naive_fast)

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

let test_safe_two_writes_two_readers () =
  (* 2 writes, 2 readers x 2 reads: far beyond the exhaustive budget;
     2000 random schedules, all safe. *)
  let r =
    ES.random_walks ~walks:2000 ~seed:7
      {
        ES.cfg = Quorum.Config.optimal ~t:1 ~b:1;
        writes = [ Core.Value.v "a"; Core.Value.v "b" ];
        reads = [ (1, 2); (2, 2) ];
        sequential = false;
        byz = [];
        crashed = [];
      }
  in
  Alcotest.(check int) "all walks completed" 2000 r.terminals;
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "non-trivial walks" true (r.explored > 10_000)

(* A Byzantine regular object: every history it returns to a reader
   carries a forged complete entry <9, "ghost">. *)
let corrupt_history_acks ~src:_ m =
  let corrupt h =
    let tsval = Core.Tsval.make ~ts:9 ~v:(Core.Value.v "ghost") in
    let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
    Core.History_store.set h ~ts:9 { Core.History_store.pw = tsval; w = Some w }
  in
  match m with
  | Core.Messages.Read1_ack_h { tsr; history } ->
      [ Core.Messages.Read1_ack_h { tsr; history = corrupt history } ]
  | Core.Messages.Read2_ack_h { tsr; history } ->
      [ Core.Messages.Read2_ack_h { tsr; history = corrupt history } ]
  | m -> [ m ]

let test_regular_walks_with_byz () =
  let forge : ER.pure_byz = { rewrite = corrupt_history_acks } in
  let r =
    ER.random_walks ~walks:500 ~property:`Regular ~seed:8
      {
        ER.cfg = Quorum.Config.optimal ~t:1 ~b:1;
        writes = [ Core.Value.v "a"; Core.Value.v "b" ];
        reads = [ (1, 2) ];
        sequential = false;
        byz = [ (2, forge) ];
        crashed = [];
      }
  in
  Alcotest.(check int) "no violations" 0 (List.length r.violations)

let test_sampler_finds_naive_violation () =
  let r =
    EF.random_walks ~walks:200 ~seed:9
      {
        EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [ (1, forge_naive) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "violation sampled" true (List.length r.violations > 0)

let test_sampler_deterministic () =
  let go () =
    let r =
      ES.random_walks ~walks:50 ~seed:3
        {
          ES.cfg = Quorum.Config.optimal ~t:1 ~b:1;
          writes = [ Core.Value.v "a" ];
          reads = [ (1, 1) ];
          sequential = false;
          byz = [];
          crashed = [];
        }
    in
    r.explored
  in
  Alcotest.(check int) "same seed, same walk lengths" (go ()) (go ())

let suite =
  ( "random-walks",
    [
      Alcotest.test_case "safe 2W/2R x 2 sampled" `Quick
        test_safe_two_writes_two_readers;
      Alcotest.test_case "regular with byz sampled" `Quick
        test_regular_walks_with_byz;
      Alcotest.test_case "finds naive violation" `Quick
        test_sampler_finds_naive_violation;
      Alcotest.test_case "deterministic per seed" `Quick test_sampler_deterministic;
    ] )
