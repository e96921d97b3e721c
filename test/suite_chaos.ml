(* Chaos campaign engine: plan generation stays within the resilience
   budget, within-budget campaigns never break the robust protocols
   (Theorems 1-4), the naive-fast negative control breaks and its
   witness shrinks to a minimal deterministic reproduction, and the
   wait-freedom watchdog only accuses quiescent runs. *)

let cfg = Quorum.Config.optimal ~t:1 ~b:1

(* --- plan machinery ----------------------------------------------------- *)

let test_gen_within_budget () =
  let rng = Sim.Prng.create ~seed:7 in
  for _ = 1 to 200 do
    let plan = Fault.Plan.gen ~rng ~cfg ~budget:Fault.Plan.medium in
    if not (Fault.Plan.within_budget ~cfg plan) then
      Alcotest.failf "generated plan exceeds budget: %s"
        (Fault.Plan.to_compact plan)
  done

let test_budget_accounting () =
  let open Fault.Plan in
  let plan actions = { horizon = 800; actions } in
  Alcotest.(check bool)
    "persisted recovery is a crash fault, not Byzantine" true
    (within_budget ~cfg
       (plan [ Crash { obj = 1; at = 10 }; Recover { obj = 1; at = 50; wipe = false } ]));
  Alcotest.(check bool)
    "wiped recovery spends the Byzantine budget" false
    (within_budget ~cfg
       (plan
          [
            Byz { obj = 2; kind = Forge };
            Crash { obj = 1; at = 10 };
            Recover { obj = 1; at = 50; wipe = true };
          ]));
  Alcotest.(check bool)
    "two crashed objects exceed t = 1" false
    (within_budget ~cfg
       (plan [ Crash { obj = 1; at = 10 }; Crash { obj = 2; at = 20 } ]));
  Alcotest.(check bool)
    "network chaos is free" true
    (within_budget ~cfg
       (plan
          [
            Block { src = W; dst = O 1; from_ = 0; until = 400 };
            Isolate { obj = 2; from_ = 100; until = 300 };
            Duplicate { src = R 1; dst = O 3; copies = 2; from_ = 0; until = 800 };
          ]))

(* --- crash-recovery at the scenario level ------------------------------- *)

let test_crash_recovery_persisted_stays_safe () =
  let open Fault.Plan in
  let plan =
    {
      horizon = 800;
      actions =
        [ Crash { obj = 1; at = 100 }; Recover { obj = 1; at = 300; wipe = false } ];
    }
  in
  let v = Fault.Campaign.run_plan Fault.Campaign.Safe ~cfg ~seed:3 plan in
  Alcotest.(check bool) "quiescent" true v.Fault.Campaign.quiescent;
  Alcotest.(check int) "no safety violations" 0 v.Fault.Campaign.safety;
  Alcotest.(check int) "no wait-freedom violations" 0 v.Fault.Campaign.liveness;
  Alcotest.(check int)
    "every operation completed" v.Fault.Campaign.total v.Fault.Campaign.completed

let test_crash_recovery_wiped_stays_safe () =
  (* A wiped recovery consumes the whole b = 1 budget; the safe protocol
     must still hold (the recovered object behaves like a Byzantine one
     that forgot acknowledged writes). *)
  let open Fault.Plan in
  let plan =
    {
      horizon = 800;
      actions =
        [ Crash { obj = 2; at = 150 }; Recover { obj = 2; at = 400; wipe = true } ];
    }
  in
  Alcotest.(check bool) "within budget" true (within_budget ~cfg plan);
  let v = Fault.Campaign.run_plan Fault.Campaign.Safe ~cfg ~seed:5 plan in
  Alcotest.(check int) "no safety violations" 0 v.Fault.Campaign.safety;
  Alcotest.(check int) "no wait-freedom violations" 0 v.Fault.Campaign.liveness

(* --- the negative control and the shrinker ------------------------------ *)

let test_naive_fast_breaks_and_shrinks () =
  let seeds = List.init 10 (fun i -> i + 1) in
  let cell =
    List.hd
      (Fault.Campaign.sweep ~protocols:[ Naive_fast ] ~t:1 ~b:1 ~seeds
         ~budget:Fault.Plan.small ())
  in
  (match cell.Fault.Campaign.failures with
  | [] ->
      Alcotest.fail
        "naive-fast on S = 2t+2b survived 30 within-budget plans — the \
         Proposition 1 control found nothing"
  | (seed, plan) :: _ ->
      let repro =
        Fault.Campaign.violates Fault.Campaign.Naive_fast
          ~cfg:cell.Fault.Campaign.cfg ~seed
      in
      let o = Fault.Shrink.minimize ~repro plan in
      Alcotest.(check bool)
        "shrunk no larger than original" true
        (Fault.Plan.length o.Fault.Shrink.plan <= Fault.Plan.length plan);
      (* the minimal witness reproduces, deterministically *)
      Alcotest.(check bool) "witness reproduces" true (repro o.Fault.Shrink.plan);
      Alcotest.(check bool)
        "witness reproduces again" true (repro o.Fault.Shrink.plan);
      (* 1-minimality: removing any single action kills the repro *)
      List.iteri
        (fun i _ ->
          let weakened =
            {
              o.Fault.Shrink.plan with
              Fault.Plan.actions =
                List.filteri (fun j _ -> j <> i)
                  o.Fault.Shrink.plan.Fault.Plan.actions;
            }
          in
          if repro weakened then
            Alcotest.failf "witness not 1-minimal: action %d is removable" i)
        o.Fault.Shrink.plan.Fault.Plan.actions);
  Alcotest.(check bool) "some runs violated safety" true
    (cell.Fault.Campaign.safety_runs > 0)

let test_shrink_rejects_passing_plan () =
  let plan = Fault.Plan.empty ~horizon:800 in
  Alcotest.check_raises "non-reproducing input"
    (Invalid_argument "Shrink.minimize: plan does not reproduce the violation")
    (fun () -> ignore (Fault.Shrink.minimize ~repro:(fun _ -> false) plan))

(* --- wait-freedom watchdog ---------------------------------------------- *)

let pending_read : string Histories.Op.t =
  {
    Histories.Op.id = 1;
    action = Histories.Op.Read { reader = 1; result = None };
    invoked_at = 10;
    invoked_stamp = 1;
    responded_at = None;
    responded_stamp = None;
    rounds = None;
  }

let test_watchdog_abstains_without_quiescence () =
  Alcotest.(check int) "no verdict on truncated runs" 0
    (List.length
       (Histories.Checks.check_wait_freedom ~quiescent:false [ pending_read ]))

let test_watchdog_flags_quiescent_pending_read () =
  match Histories.Checks.check_wait_freedom ~quiescent:true [ pending_read ] with
  | [ v ] ->
      Alcotest.(check string) "rule" "wait-freedom" v.Histories.Checks.rule
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* --- qcheck: within-budget plans never break the robust protocols ------- *)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let robust_under_chaos name protocol =
  QCheck.Test.make ~name ~count:40 arb_seed (fun seed ->
      let rng = Sim.Prng.create ~seed in
      let plan = Fault.Plan.gen ~rng ~cfg ~budget:Fault.Plan.small in
      let v = Fault.Campaign.run_plan protocol ~cfg ~seed plan in
      let ok =
        (Fault.Campaign.breaches v = 0)
        && (not v.Fault.Campaign.quiescent
           || v.Fault.Campaign.completed = v.Fault.Campaign.total)
      in
      if not ok then
        QCheck.Test.fail_reportf
          "plan %s: safety=%d regularity=%d liveness=%d completed=%d/%d"
          (Fault.Plan.to_compact plan)
          v.Fault.Campaign.safety v.Fault.Campaign.regularity
          v.Fault.Campaign.liveness v.Fault.Campaign.completed
          v.Fault.Campaign.total;
      true)

(* Direct crash-recovery coverage: arbitrary crash time, downtime and
   wipe flag — the safe protocol must stay safe and wait-free. *)
let prop_crash_recovery_survives =
  let arb =
    QCheck.make
      ~print:(fun (obj, at, down, wipe) ->
        Printf.sprintf "crash(s%d@%d) recover@%d %s" obj at (at + down)
          (if wipe then "wiped" else "persisted"))
      QCheck.Gen.(
        quad (1 -- 4) (0 -- 700) (1 -- 400) bool)
  in
  QCheck.Test.make ~name:"crash-recovery within budget stays safe" ~count:40
    arb (fun (obj, at, down, wipe) ->
      let plan =
        {
          Fault.Plan.horizon = 800;
          actions =
            [
              Fault.Plan.Crash { obj; at };
              Fault.Plan.Recover { obj; at = min (at + down) 800; wipe };
            ];
        }
      in
      assert (Fault.Plan.within_budget ~cfg plan);
      let v = Fault.Campaign.run_plan Fault.Campaign.Safe ~cfg ~seed:11 plan in
      v.Fault.Campaign.safety = 0 && v.Fault.Campaign.liveness = 0)

let prop_safe_survives =
  robust_under_chaos "safe survives within-budget chaos" Fault.Campaign.Safe

let prop_regular_survives =
  robust_under_chaos "regular survives within-budget chaos"
    Fault.Campaign.Regular

(* Regular-gc, the protocol every benchmark workload runs, is a table
   entry like the others: the campaign sweeps it at its design
   configuration and it must survive every plan. *)
let test_regular_gc_survives_campaign () =
  let cell =
    List.hd
      (Fault.Campaign.sweep ~jobs:1 ~budget:Fault.Plan.small ~plans_per_seed:2
         ~protocols:[ Regular_gc ] ~t:1 ~b:1 ~seeds:[ 1; 2; 3; 4; 5; 6 ] ())
  in
  Alcotest.(check int) "S = 2t+b+1" 4 cell.Fault.Campaign.cfg.Quorum.Config.s;
  Alcotest.(check int) "runs" 12 cell.Fault.Campaign.runs;
  Alcotest.(check string) "verdict" "survives"
    (Fault.Campaign.cell_verdict cell)

(* The judge counts the rounds each op's automaton reported against the
   entry's bound (an open op has none, and nonmod's reads claim no
   bound) and keeps each violation of the claim with its key. *)
let test_judge_rounds_and_keys () =
  let judge ?(p = Fault.Campaign.Safe) histories =
    Fault.Campaign.judge p ~quiescent:true ~completed:0 ~total:0 histories
  in
  let module R = Histories.Recorder in
  (* A write of "a", then a read of it: each responds with the rounds
     given, or stays open without them. *)
  let history ?write ?read () =
    let r = R.create () in
    let w = R.invoke_write r ~time:0 "a" in
    Option.iter (fun rounds -> R.respond_write ~rounds r w ~time:5) write;
    let rd = R.invoke_read r ~time:10 ~reader:1 in
    Option.iter
      (fun rounds -> R.respond_read ~rounds r rd ~time:15 (Histories.Op.Value "a"))
      read;
    R.ops r
  in
  let rounds ?p h = (judge ?p [ (0, h) ]).Fault.Campaign.rounds in
  Alcotest.(check int) "at the bound" 0 (rounds (history ~write:2 ~read:2 ()));
  Alcotest.(check int) "past the bound" 2 (rounds (history ~write:3 ~read:3 ()));
  Alcotest.(check int) "an open op" 0 (rounds (history ~write:2 ()));
  Alcotest.(check int) "nonmod's reads" 0
    (rounds ~p:Nonmod (history ~write:2 ~read:9 ()));
  let r = R.create () in
  R.respond_write r (R.invoke_write r ~time:0 "a") ~time:5;
  Alcotest.(check int) "an op recorded without rounds" 0 (rounds (R.ops r));
  let r = R.create () in
  let w = R.invoke_write r ~time:0 "a" in
  R.respond_write r w ~time:5;
  let rd = R.invoke_read r ~time:10 ~reader:1 in
  R.respond_read r rd ~time:15 (Histories.Op.Value "ghost");
  let v = judge [ (3, []); (7, R.ops r) ] in
  Alcotest.(check (list int)) "the violation keeps its key" [ 7 ]
    (List.map fst v.Fault.Campaign.violations);
  Alcotest.(check int) "complete ops checked" 2 v.Fault.Campaign.checked;
  (* abd-atomic's violations are regularity's plus the inversions, taken
     from the judge's one scan per checker. *)
  let r = R.create () in
  let w = R.invoke_write r ~time:0 "a" in
  R.respond_write r w ~time:5;
  let w = R.invoke_write r ~time:20 "b" in
  let read ~at ~reader value =
    let rd = R.invoke_read r ~time:at ~reader in
    R.respond_read r rd ~time:(at + 5) (Histories.Op.Value value)
  in
  read ~at:30 ~reader:1 "b";
  read ~at:40 ~reader:2 "a";
  read ~at:50 ~reader:1 "ghost";
  R.respond_write r w ~time:100;
  let h = R.ops r in
  let v = judge ~p:Abd_atomic [ (4, h) ] in
  Alcotest.(check int) "one regularity violation" 1 v.Fault.Campaign.regularity;
  Alcotest.(check (list string)) "regularity, then the inversion"
    [ "regularity(1)"; "atomicity(new-old inversion)" ]
    (List.map (fun (_, (x : _ Histories.Checks.violation)) -> x.rule) v.violations);
  Alcotest.(check bool) "the judge's violations are the checker's" true
    (List.map snd v.violations
    = Histories.Checks.check_atomicity ~equal:String.equal h)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "generated plans within budget" `Quick
        test_gen_within_budget;
      Alcotest.test_case "budget accounting" `Quick test_budget_accounting;
      Alcotest.test_case "crash-recovery (persisted) stays safe" `Quick
        test_crash_recovery_persisted_stays_safe;
      Alcotest.test_case "crash-recovery (wiped) stays safe" `Quick
        test_crash_recovery_wiped_stays_safe;
      Alcotest.test_case "naive-fast breaks; witness shrinks" `Quick
        test_naive_fast_breaks_and_shrinks;
      Alcotest.test_case "shrinker rejects passing plan" `Quick
        test_shrink_rejects_passing_plan;
      Alcotest.test_case "regular-gc survives the campaign" `Quick
        test_regular_gc_survives_campaign;
      Alcotest.test_case "watchdog abstains without quiescence" `Quick
        test_watchdog_abstains_without_quiescence;
      Alcotest.test_case "watchdog flags quiescent pending read" `Quick
        test_watchdog_flags_quiescent_pending_read;
      Alcotest.test_case "judge holds rounds and keys" `Quick
        test_judge_rounds_and_keys;
      QCheck_alcotest.to_alcotest prop_crash_recovery_survives;
      QCheck_alcotest.to_alcotest prop_safe_survives;
      QCheck_alcotest.to_alcotest prop_regular_survives;
    ] )
