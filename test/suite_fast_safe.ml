(* Tests for the above-threshold fast protocol: safe with 1-round
   operations at S >= 2t+2b+1, doomed at S = 2t+2b — the tightness of
   Proposition 1 seen from both sides. *)

module F = Core.Scenario.Make (Baseline.Fast_safe)
module LB = Mc.Lower_bound.Make (Baseline.Fast_safe)

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

let above_threshold ~t ~b = Quorum.Config.make_exn ~s:((2 * t) + (2 * b) + 1) ~t ~b

let test_crash_free_above_threshold () =
  let rep =
    F.run ~cfg:(above_threshold ~t:1 ~b:1) ~seed:1 ~delay:uniform schedule
  in
  Alcotest.(check int) "completes" 5 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history);
  Alcotest.(check bool) "all single round" true
    (List.for_all (fun r -> r = 1) (Complete.rounds rep.history))

let test_byzantine_forger_above_threshold () =
  List.iter
    (fun (t, b) ->
      let faults =
        List.init b (fun i ->
            F.Byzantine
              {
                obj = i + 1;
                factory =
                  Baseline.Fast_safe.byz_forge_high ~value:"evil" ~ts_boost:9;
              })
      in
      let rep =
        F.run ~cfg:(above_threshold ~t ~b) ~seed:2 ~delay:uniform ~faults
          schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "safe at t=%d b=%d" t b)
        true
        (Histories.Checks.is_safe ~equal rep.history);
      Alcotest.(check int) "completes" 5 (Complete.count rep.history))
    [ (1, 1); (2, 1); (2, 2) ]

let test_colluding_endorsers_fall_short () =
  (* b Byzantine objects all vouch for the same forged pair: b < b+1, so
     the endorsement bar holds. *)
  let t = 2 and b = 2 in
  let faults =
    List.init b (fun i ->
        F.Byzantine
          {
            obj = i + 1;
            factory =
              Baseline.Fast_safe.byz_endorse_forgery ~value:"ghost" ~ts:50;
          })
  in
  let rep =
    F.run ~cfg:(above_threshold ~t ~b) ~seed:3 ~delay:uniform ~faults schedule
  in
  Alcotest.(check bool) "collusion fails" true
    (Histories.Checks.is_safe ~equal rep.history);
  (* no read ever returned the forged value *)
  Alcotest.(check bool) "ghost never returned" true
    (List.for_all
       (fun op -> Histories.Op.read_result op <> Some (Value "ghost"))
       (Complete.reads rep.history))

let test_crashes_above_threshold () =
  let cfg = above_threshold ~t:2 ~b:1 in
  let faults =
    [
      F.Crash { proc = Sim.Proc_id.Obj 1; at = 0 };
      F.Crash { proc = Sim.Proc_id.Obj 2; at = 150 };
    ]
  in
  let rep = F.run ~cfg ~seed:4 ~delay:uniform ~faults schedule in
  Alcotest.(check int) "wait-free" 5 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history)

let test_at_threshold_lower_bound_bites () =
  (* Forced to S = 2t+2b by the Proposition 1 construction, the fast
     reader decides and violates. *)
  let o = LB.analyse ~t:1 ~b:1 ~value:(Core.Value.v "v1") in
  match o.verdict with
  | LB.Violates_run4 _ | LB.Violates_run5 _ -> ()
  | LB.Not_fast -> Alcotest.fail "fast-safe must be classified fast"

module E = Mc.Explorer.Make (Baseline.Fast_safe)

(* The protocol's row of the table: its claim and round bounds. *)
let contract = Fault.Campaign.contract

let test_at_threshold_byzantine_breaks_it () =
  (* Deployed one object short, a Byzantine object replaying the initial
     state breaks safety: quorums now overlap the write quorum in only
     b+1 objects, so the adversary pairs its stale replay with an honest
     object that legitimately has not yet received the (completed)
     write, reaching the b+1 endorsement bar for the OLD value.  The
     schedule is subtle — the model checker finds it unaided. *)
  let replay_initial : E.pure_byz =
    {
      rewrite =
        (fun ~src:_ m ->
          match m with
          | Baseline.Fast_safe.Read_ack { rid; _ } ->
              [ Baseline.Fast_safe.Read_ack { rid; ts = 0; v = Core.Value.bottom } ]
          | m -> [ m ]);
    }
  in
  let r =
    E.check ~max_states:200_000 ~contract:(contract Fast_safe)
      {
        E.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "v1" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [ (1, replay_initial) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check bool) "MC finds the below-threshold violation" true
    (List.exists (fun (v : E.violation) -> v.kind = "safety") r.violations)

let test_above_threshold_mc_clean () =
  (* Same adversary, one more object: exhaustively clean. *)
  let replay_initial : E.pure_byz =
    {
      rewrite =
        (fun ~src:_ m ->
          match m with
          | Baseline.Fast_safe.Read_ack { rid; _ } ->
              [ Baseline.Fast_safe.Read_ack { rid; ts = 0; v = Core.Value.bottom } ]
          | m -> [ m ]);
    }
  in
  let r =
    E.check ~max_states:400_000 ~contract:(contract Fast_safe)
      {
        E.cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1;
        writes = [ Core.Value.v "v1" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [ (1, replay_initial) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "exhaustive" false r.truncated;
  Alcotest.(check int) "no violations at s = 2t+2b+1" 0
    (List.length r.violations)

let qcheck_safe_above_threshold =
  QCheck.Test.make ~name:"fast-safe: random byz runs above threshold stay safe"
    ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 1 5))
    (fun (seed, byz_obj) ->
      let cfg = above_threshold ~t:1 ~b:1 in
      let rng = Sim.Prng.create ~seed in
      let schedule =
        Workload.Generate.read_mostly ~rng ~writes:3 ~readers:2
          ~reads_per_reader:3 ~horizon:600
      in
      let rep =
        F.run ~cfg ~seed ~delay:uniform
          ~faults:
            [
              F.Byzantine
                {
                  obj = byz_obj;
                  factory =
                    Baseline.Fast_safe.byz_forge_high ~value:"evil" ~ts_boost:7;
                };
            ]
          schedule
      in
      Histories.Checks.is_safe ~equal rep.history
      && List.for_all (fun r -> r = 1) (Complete.rounds rep.history))

let suite =
  ( "fast-safe",
    [
      Alcotest.test_case "crash-free above threshold" `Quick
        test_crash_free_above_threshold;
      Alcotest.test_case "byzantine forger above threshold" `Quick
        test_byzantine_forger_above_threshold;
      Alcotest.test_case "colluding endorsers fall short" `Quick
        test_colluding_endorsers_fall_short;
      Alcotest.test_case "crashes above threshold" `Quick
        test_crashes_above_threshold;
      Alcotest.test_case "lower bound bites at 2t+2b" `Quick
        test_at_threshold_lower_bound_bites;
      Alcotest.test_case "byzantine breaks it below threshold" `Quick
        test_at_threshold_byzantine_breaks_it;
      Alcotest.test_case "MC clean above threshold" `Quick
        test_above_threshold_mc_clean;
      QCheck_alcotest.to_alcotest qcheck_safe_above_threshold;
    ] )
