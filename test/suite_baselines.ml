(* Tests for the baseline protocols: ABD (crash-only), the non-modifying
   b+1-round reader, the authenticated register and the naive fast
   strawman. *)

module A = Core.Scenario.Make (Baseline.Abd.Regular)
module At = Core.Scenario.Make (Baseline.Abd.Atomic)
module N = Core.Scenario.Make (Baseline.Nonmod)
module Au = Core.Scenario.Make (Baseline.Auth)
module F = Core.Scenario.Make (Baseline.Naive_fast)

let equal = String.equal

let uniform = Sim.Delay.uniform ~lo:1 ~hi:10

let schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "v1"));
    (100, Core.Schedule.Read { reader = 1 });
    (200, Core.Schedule.Write (Core.Value.v "v2"));
    (300, Core.Schedule.Read { reader = 1 });
    (310, Core.Schedule.Read { reader = 2 });
  ]

(* --- ABD ---------------------------------------------------------------- *)

let test_abd_regular_crash_free () =
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let rep = A.run ~cfg ~seed:1 ~delay:uniform schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "regular" true (Histories.Checks.is_regular ~equal rep.history);
  Alcotest.(check bool) "all ops single round" true
    (List.for_all (fun r -> r = 1) (Complete.rounds rep.history))

let test_abd_regular_with_crash () =
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let faults = [ A.Crash { proc = Sim.Proc_id.Obj 2; at = 50 } ] in
  let rep = A.run ~cfg ~seed:2 ~delay:uniform ~faults schedule in
  Alcotest.(check int) "wait-free under crash" 5 (Complete.count rep.history);
  Alcotest.(check bool) "regular" true (Histories.Checks.is_regular ~equal rep.history)

let test_abd_atomic_write_back () =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:2 ~b:0 in
  let faults = [ At.Crash { proc = Sim.Proc_id.Obj 1; at = 0 } ] in
  let rep = At.run ~cfg ~seed:3 ~delay:(Sim.Delay.uniform ~lo:1 ~hi:40) ~faults schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "atomic" true (Histories.Checks.is_atomic ~equal rep.history);
  Alcotest.(check bool) "reads take at most 2 rounds" true
    (List.for_all (fun r -> r <= 2) (Complete.rounds rep.history))

let test_abd_broken_by_byzantine () =
  (* Negative control: ABD was never designed for b > 0. *)
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let faults =
    [
      A.Byzantine
        { obj = 1; factory = Baseline.Abd.byz_forge_high ~value:"evil" ~ts_boost:10 };
    ]
  in
  let rep = A.run ~cfg ~seed:4 ~delay:uniform ~faults schedule in
  Alcotest.(check bool) "safety violated" false
    (Histories.Checks.is_safe ~equal rep.history)

(* --- Non-modifying readers --------------------------------------------- *)

let test_nonmod_crash_free () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let rep = N.run ~cfg ~seed:5 ~delay:uniform schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history)

let test_nonmod_byzantine_costs_phases () =
  (* Byzantine vouching for fake candidates stays safe but burns extra
     read phases — the round gap the core protocol closes. *)
  let cfg = Quorum.Config.optimal ~t:2 ~b:2 in
  let faults =
    [
      N.Byzantine
        { obj = 1; factory = Baseline.Nonmod.byz_forge_high ~value:"e1" ~ts_boost:5 };
      N.Byzantine
        { obj = 2; factory = Baseline.Nonmod.byz_forge_high ~value:"e2" ~ts_boost:8 };
    ]
  in
  let rep = N.run ~cfg ~seed:6 ~delay:uniform ~faults schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history);
  let max_phases = List.fold_left max 0 (Complete.read_rounds rep.history) in
  Alcotest.(check bool)
    (Printf.sprintf "some read needed more than one phase (max=%d)" max_phases)
    true (max_phases >= 2)

let test_nonmod_phase_growth_vs_safe_two_rounds () =
  (* The round-complexity gap the paper closes: with a Byzantine forger
     plus one very slow honest object, the non-modifying reader keeps
     re-polling (its fake top candidate can neither gather b+1 vouchers
     nor t+b+1 dissents until the straggler answers), while the Figure 4
     reader never exceeds its two rounds. *)
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let slow =
    Sim.Delay.slow_process
      ~slow:(Sim.Proc_id.Set.singleton (Sim.Proc_id.Obj 4))
      ~factor:30
      (Sim.Delay.uniform ~lo:1 ~hi:10)
  in
  let sched =
    [
      (0, Core.Schedule.Write (Core.Value.v "v1"));
      (100, Core.Schedule.Read { reader = 1 });
    ]
  in
  let nonmod_phases =
    let faults =
      [
        N.Byzantine
          {
            obj = 1;
            factory = Baseline.Nonmod.byz_forge_high ~value:"evil" ~ts_boost:9;
          };
      ]
    in
    let rep = N.run ~cfg ~seed:33 ~delay:slow ~faults sched in
    Alcotest.(check bool) "nonmod safe" true
      (Histories.Checks.is_safe ~equal rep.history);
    List.fold_left max 0 (Complete.read_rounds rep.history)
  in
  let module S = Core.Scenario.Make (Core.Proto_safe) in
  let safe_rounds =
    let faults =
      [
        S.Byzantine
          {
            obj = 1;
            factory = Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:9;
          };
      ]
    in
    let rep = S.run ~cfg ~seed:33 ~delay:slow ~faults sched in
    Alcotest.(check bool) "safe protocol safe" true
      (Histories.Checks.is_safe ~equal rep.history);
    List.fold_left max 0 (Complete.read_rounds rep.history)
  in
  Alcotest.(check bool)
    (Printf.sprintf "nonmod needed %d phases, safe %d rounds" nonmod_phases
       safe_rounds)
    true
    (nonmod_phases >= 3 && safe_rounds <= 2)

let test_nonmod_stale_byz_safe () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let faults = [ N.Byzantine { obj = 3; factory = Baseline.Nonmod.byz_stale } ] in
  let rep = N.run ~cfg ~seed:7 ~delay:uniform ~faults schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history)

(* --- Authenticated ------------------------------------------------------ *)

let test_auth_fast_and_regular () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let rep = Au.run ~cfg ~seed:8 ~delay:uniform schedule in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "regular" true (Histories.Checks.is_regular ~equal rep.history);
  Alcotest.(check bool) "all single round" true
    (List.for_all (fun r -> r = 1) (Complete.rounds rep.history))

let test_auth_immune_to_forgery () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let faults =
    [
      Au.Byzantine
        { obj = 2; factory = Baseline.Auth.byz_forge ~value:"evil" ~ts_boost:10 };
    ]
  in
  let rep = Au.run ~cfg ~seed:9 ~delay:uniform ~faults schedule in
  Alcotest.(check bool) "regular despite forger" true
    (Histories.Checks.is_regular ~equal rep.history)

let test_auth_replay_stale_safe () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let faults =
    [ Au.Byzantine { obj = 2; factory = Baseline.Auth.byz_replay_stale } ]
  in
  let rep = Au.run ~cfg ~seed:10 ~delay:uniform ~faults schedule in
  Alcotest.(check bool) "safe despite replayer" true
    (Histories.Checks.is_safe ~equal rep.history)

(* --- Naive fast --------------------------------------------------------- *)

let test_naive_fast_ok_without_byzantine () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let rep = F.run ~cfg ~seed:11 ~delay:uniform schedule in
  Alcotest.(check bool) "crash-only runs look fine" true
    (Histories.Checks.is_safe ~equal rep.history)

let test_naive_fast_broken_by_one_byzantine () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let faults =
    [
      F.Byzantine
        {
          obj = 1;
          factory = Baseline.Naive_fast.byz_forge_high ~value:"ghost" ~ts_boost:10;
        };
    ]
  in
  let rep = F.run ~cfg ~seed:12 ~delay:uniform ~faults schedule in
  Alcotest.(check bool) "safety violated" false
    (Histories.Checks.is_safe ~equal rep.history)

let test_naive_fast_run5_adversary () =
  (* No write ever happens; a malicious object simulates one. *)
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let faults =
    [
      F.Byzantine
        {
          obj = 1;
          factory = Baseline.Naive_fast.byz_simulate_write ~value:"ghost" ~ts:5;
        };
    ]
  in
  let rep =
    F.run ~cfg ~seed:13 ~delay:uniform ~faults
      [ (0, Core.Schedule.Read { reader = 1 }) ]
  in
  match Histories.Checks.check_safety ~equal rep.history with
  | [ v ] -> Alcotest.(check string) "rule" "safety" v.Histories.Checks.rule
  | vs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one violation, got %d" (List.length vs))

let suite =
  ( "baselines",
    [
      Alcotest.test_case "abd regular crash-free" `Quick test_abd_regular_crash_free;
      Alcotest.test_case "abd regular with crash" `Quick test_abd_regular_with_crash;
      Alcotest.test_case "abd atomic write-back" `Quick test_abd_atomic_write_back;
      Alcotest.test_case "abd broken by byzantine" `Quick
        test_abd_broken_by_byzantine;
      Alcotest.test_case "nonmod crash-free" `Quick test_nonmod_crash_free;
      Alcotest.test_case "nonmod byzantine costs phases" `Quick
        test_nonmod_byzantine_costs_phases;
      Alcotest.test_case "nonmod stale byz safe" `Quick test_nonmod_stale_byz_safe;
      Alcotest.test_case "nonmod phase growth vs safe" `Quick
        test_nonmod_phase_growth_vs_safe_two_rounds;
      Alcotest.test_case "auth fast and regular" `Quick test_auth_fast_and_regular;
      Alcotest.test_case "auth immune to forgery" `Quick test_auth_immune_to_forgery;
      Alcotest.test_case "auth replay stale safe" `Quick test_auth_replay_stale_safe;
      Alcotest.test_case "naive fast ok without byzantine" `Quick
        test_naive_fast_ok_without_byzantine;
      Alcotest.test_case "naive fast broken by one byzantine" `Quick
        test_naive_fast_broken_by_one_byzantine;
      Alcotest.test_case "naive fast run5 adversary" `Quick
        test_naive_fast_run5_adversary;
    ] )
