(* End-to-end simulated runs of the paper's protocols: safety/regularity
   under crashes, Byzantine strategies, contention and random schedules —
   Theorems 1-4 exercised empirically. *)

module S = Core.Scenario.Make (Core.Proto_safe)
module R = Core.Scenario.Make (Core.Proto_regular.Plain)
module O = Core.Scenario.Make (Core.Proto_regular.Optimized)

let equal = String.equal

let uniform = Sim.Delay.uniform ~lo:1 ~hi:10

let basic_schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "v1"));
    (100, Core.Schedule.Read { reader = 1 });
    (200, Core.Schedule.Write (Core.Value.v "v2"));
    (300, Core.Schedule.Read { reader = 1 });
    (300, Core.Schedule.Read { reader = 2 });
    (400, Core.Schedule.Write (Core.Value.v "v3"));
    (500, Core.Schedule.Read { reader = 2 });
  ]

let test_safe_crash_free () =
  let rep =
    S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:1 ~delay:uniform basic_schedule
  in
  Alcotest.(check int) "all ops complete" 7 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history);
  Alcotest.(check bool) "regular" true
    (Histories.Checks.is_regular ~equal rep.history);
  Alcotest.(check bool) "reads within 2 rounds" true
    (List.for_all (fun r -> r >= 1 && r <= 2) (Complete.read_rounds rep.history))

let test_safe_with_crashes () =
  (* t = 2 crashes (one before, one mid-run) with b = 1 budgeted. *)
  let cfg = Quorum.Config.optimal ~t:2 ~b:1 in
  let faults =
    [
      S.Crash { proc = Sim.Proc_id.Obj 1; at = 0 };
      S.Crash { proc = Sim.Proc_id.Obj 5; at = 250 };
    ]
  in
  let rep = S.run ~cfg ~seed:3 ~delay:uniform ~faults basic_schedule in
  Alcotest.(check int) "wait-freedom despite crashes" 7 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history)

let test_safe_reader_crash_does_not_block_writer () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let faults = [ S.Crash { proc = Sim.Proc_id.Reader 1; at = 105 } ] in
  let rep = S.run ~cfg ~seed:4 ~delay:uniform ~faults basic_schedule in
  let writes_done =
    Complete.count (List.filter Histories.Op.is_write rep.history)
  in
  Alcotest.(check int) "writes unaffected" 3 writes_done;
  Alcotest.(check bool) "history stays safe" true
    (Histories.Checks.is_safe ~equal rep.history)

let all_strategies =
  [
    ("mute", Fault.Strategies.mute);
    ("forge_high", Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:5);
    ("replay_initial", Fault.Strategies.replay_initial);
    ("simulate_unwritten",
     Fault.Strategies.simulate_unwritten_write ~value:"ghost" ~ts:7);
    ("defame", Fault.Strategies.defame ~targets:[ 1; 3; 4 ] ~boost:10);
    ("equivocate", Fault.Strategies.equivocate ~values:[ "x"; "y" ] ~ts_boost:3);
    ("random_garbage", Fault.Strategies.random_garbage);
  ]

let test_safe_under_every_strategy () =
  List.iter
    (fun (name, strat) ->
      let rep =
        S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:11 ~delay:uniform
          ~faults:[ S.Byzantine { obj = 2; factory = strat } ]
          basic_schedule
      in
      Alcotest.(check int) (name ^ ": completes") 7 (Complete.count rep.history);
      Alcotest.(check bool) (name ^ ": safe") true
        (Histories.Checks.is_safe ~equal rep.history);
      Alcotest.(check bool) (name ^ ": <= 2 rounds") true
        (List.for_all (fun r -> r <= 2) (Complete.read_rounds rep.history)))
    all_strategies

let test_safe_byzantine_plus_crash () =
  (* The full fault budget at once: t=2, b=1 — one Byzantine forger and
     one crash. *)
  let cfg = Quorum.Config.optimal ~t:2 ~b:1 in
  let faults =
    [
      S.Crash { proc = Sim.Proc_id.Obj 6; at = 150 };
      S.Byzantine
        { obj = 2; factory = Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:9 };
    ]
  in
  let rep = S.run ~cfg ~seed:17 ~delay:uniform ~faults basic_schedule in
  Alcotest.(check int) "completes" 7 (Complete.count rep.history);
  Alcotest.(check bool) "safe" true (Histories.Checks.is_safe ~equal rep.history)

let regular_strategies =
  [
    ("forge_history", Fault.Strategies.forge_history ~value:"evil" ~ts_boost:5);
    ("empty_history", Fault.Strategies.empty_history);
    ("stale_history", Fault.Strategies.stale_history ~keep:1);
    ("defame_history", Fault.Strategies.defame_history ~targets:[ 1; 3 ] ~boost:5);
  ]

let run_regular ?(schedule = basic_schedule) ?faults () =
  R.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:23 ~delay:uniform ?faults
    schedule

let test_regular_crash_free () =
  let rep = run_regular () in
  Alcotest.(check int) "completes" 7 (Complete.count rep.history);
  Alcotest.(check bool) "regular" true
    (Histories.Checks.is_regular ~equal rep.history);
  Alcotest.(check bool) "atomic here (sequential reads)" true
    (Histories.Checks.is_atomic ~equal rep.history)

let test_regular_under_every_strategy () =
  List.iter
    (fun (name, strat) ->
      let rep = run_regular ~faults:[ R.Byzantine { obj = 3; factory = strat } ] () in
      Alcotest.(check int) (name ^ ": completes") 7 (Complete.count rep.history);
      Alcotest.(check bool) (name ^ ": regular") true
        (Histories.Checks.is_regular ~equal rep.history))
    regular_strategies

let test_optimized_matches_plain_results () =
  let schedule = basic_schedule in
  let run_o () =
    O.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:23 ~delay:uniform schedule
  in
  let rep_o = run_o () in
  Alcotest.(check bool) "optimized regular" true
    (Histories.Checks.is_regular ~equal rep_o.history);
  (* identical runs are deterministic *)
  let rep_o' = run_o () in
  Alcotest.(check int) "deterministic words" rep_o.words_to_readers
    rep_o'.words_to_readers

let test_optimized_sends_fewer_words () =
  (* Long write history: the §5.1 suffix pruning must shrink replies. *)
  let schedule =
    List.concat
      (List.init 10 (fun i ->
           [
             (i * 100, Core.Schedule.Write (Core.Value.v (Printf.sprintf "v%d" (i + 1))));
             ((i * 100) + 50, Core.Schedule.Read { reader = 1 });
           ]))
  in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let rep_plain = R.run ~cfg ~seed:5 ~delay:uniform schedule in
  let rep_opt = O.run ~cfg ~seed:5 ~delay:uniform schedule in
  Alcotest.(check bool) "both regular" true
    (Histories.Checks.is_regular ~equal rep_plain.history
    && Histories.Checks.is_regular ~equal rep_opt.history);
  Alcotest.(check bool)
    (Printf.sprintf "opt (%d) < plain (%d) words" rep_opt.words_to_readers
       rep_plain.words_to_readers)
    true
    (rep_opt.words_to_readers < rep_plain.words_to_readers)

let test_contention_storm () =
  (* Writes every 10 with reads in between: heavy read/write concurrency.
     Safety constrains only non-concurrent reads; regularity all. *)
  let schedule =
    Workload.Generate.write_storm ~writes:10 ~readers:3 ~every:10
  in
  let rep =
    R.run ~cfg:(Quorum.Config.optimal ~t:2 ~b:2) ~seed:31
      ~delay:(Sim.Delay.uniform ~lo:1 ~hi:30) schedule
  in
  Alcotest.(check int) "all complete" (List.length schedule)
    (Complete.count rep.history);
  Alcotest.(check bool) "regular under contention" true
    (Histories.Checks.is_regular ~equal rep.history)

let qcheck_safe_random_schedules =
  QCheck.Test.make ~name:"safe protocol: random seeds/schedules stay safe"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Sim.Prng.create ~seed in
      let schedule =
        Workload.Generate.read_mostly ~rng ~writes:3 ~readers:2
          ~reads_per_reader:3 ~horizon:500
      in
      let rep =
        S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed ~delay:uniform schedule
      in
      Histories.Checks.is_safe ~equal rep.history
      && Histories.Checks.is_regular ~equal rep.history
      && Complete.count rep.history = List.length schedule)

let qcheck_safe_byzantine_random =
  QCheck.Test.make
    ~name:"safe protocol: random byzantine runs stay safe and live" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, byz_obj) ->
      let rng = Sim.Prng.create ~seed in
      let schedule =
        Workload.Generate.read_mostly ~rng ~writes:2 ~readers:2
          ~reads_per_reader:2 ~horizon:400
      in
      let rep =
        S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed ~delay:uniform
          ~faults:
            [
              S.Byzantine
                { obj = byz_obj; factory = Fault.Strategies.random_garbage };
            ]
          schedule
      in
      Histories.Checks.is_safe ~equal rep.history
      && Complete.count rep.history = List.length schedule)

let qcheck_regular_byzantine_random =
  QCheck.Test.make
    ~name:"regular protocol: random byzantine runs stay regular" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, byz_obj) ->
      let rng = Sim.Prng.create ~seed in
      let schedule =
        Workload.Generate.read_mostly ~rng ~writes:2 ~readers:2
          ~reads_per_reader:2 ~horizon:400
      in
      let rep =
        R.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed ~delay:uniform
          ~faults:
            [
              R.Byzantine
                {
                  obj = byz_obj;
                  factory = Fault.Strategies.forge_history ~value:"evil" ~ts_boost:3;
                };
            ]
          schedule
      in
      Histories.Checks.is_regular ~equal rep.history
      && Complete.count rep.history = List.length schedule)

let qcheck_rounds_never_exceed_two =
  QCheck.Test.make ~name:"reads and writes never exceed two rounds" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Sim.Prng.create ~seed in
      let schedule =
        Workload.Generate.read_mostly ~rng ~writes:3 ~readers:3
          ~reads_per_reader:3 ~horizon:300
      in
      let rep =
        S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed
          ~delay:(Sim.Delay.exponential ~mean:8.0)
          ~faults:[ S.Byzantine { obj = 1; factory = Fault.Strategies.random_garbage } ]
          schedule
      in
      List.for_all (fun r -> r <= 2) (Complete.rounds rep.history))

let suite =
  ( "scenario",
    [
      Alcotest.test_case "safe crash-free" `Quick test_safe_crash_free;
      Alcotest.test_case "safe with crashes" `Quick test_safe_with_crashes;
      Alcotest.test_case "reader crash isolated" `Quick
        test_safe_reader_crash_does_not_block_writer;
      Alcotest.test_case "safe under every strategy" `Quick
        test_safe_under_every_strategy;
      Alcotest.test_case "safe byzantine + crash" `Quick test_safe_byzantine_plus_crash;
      Alcotest.test_case "regular crash-free" `Quick test_regular_crash_free;
      Alcotest.test_case "regular under every strategy" `Quick
        test_regular_under_every_strategy;
      Alcotest.test_case "optimized deterministic" `Quick
        test_optimized_matches_plain_results;
      Alcotest.test_case "optimized sends fewer words" `Quick
        test_optimized_sends_fewer_words;
      Alcotest.test_case "contention storm" `Quick test_contention_storm;
      QCheck_alcotest.to_alcotest qcheck_safe_random_schedules;
      QCheck_alcotest.to_alcotest qcheck_safe_byzantine_random;
      QCheck_alcotest.to_alcotest qcheck_regular_byzantine_random;
      QCheck_alcotest.to_alcotest qcheck_rounds_never_exceed_two;
    ] )
