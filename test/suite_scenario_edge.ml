(* Edge-case scenario tests: writer crashes mid-write, reader session
   guarantees, bursts of racing readers, and report determinism. *)

module S = Core.Scenario.Make (Core.Proto_safe)
module R = Core.Scenario.Make (Core.Proto_regular.Plain)
module O = Core.Scenario.Make (Core.Proto_regular.Optimized)

let equal = String.equal

let uniform = Sim.Delay.uniform ~lo:1 ~hi:10

let test_writer_crash_mid_write () =
  (* The writer crashes a few time units into its second write: the
     write never completes, but reads must keep terminating and the
     history must stay regular (the half-written value counts as
     concurrent with everything after). *)
  let schedule =
    [
      (0, Core.Schedule.Write (Core.Value.v "v1"));
      (100, Core.Schedule.Read { reader = 1 });
      (200, Core.Schedule.Write (Core.Value.v "v2"));
      (300, Core.Schedule.Read { reader = 1 });
      (400, Core.Schedule.Read { reader = 2 });
    ]
  in
  let faults = [ R.Crash { proc = Sim.Proc_id.Writer; at = 203 } ] in
  let rep =
    R.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:13 ~delay:uniform ~faults
      schedule
  in
  let reads = Complete.reads rep.history in
  Alcotest.(check int) "all reads complete despite writer crash" 3
    (List.length reads);
  Alcotest.(check bool) "regular" true
    (Histories.Checks.is_regular ~equal rep.history);
  (* each read returned v1 or v2 (both written or being written) *)
  List.iter
    (fun op ->
      Alcotest.(check bool) "plausible value" true
        (List.mem (Histories.Op.read_result op)
           [ Some (Value "v1"); Some (Value "v2") ]))
    reads

let test_writer_crash_before_any_ack () =
  (* Crash at the instant of the first write's invocation: no object may
     ever learn the value; reads return bottom and terminate. *)
  let schedule =
    [
      (10, Core.Schedule.Write (Core.Value.v "never"));
      (100, Core.Schedule.Read { reader = 1 });
    ]
  in
  let faults = [ S.Crash { proc = Sim.Proc_id.Writer; at = 10 } ] in
  let rep =
    S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:14 ~delay:uniform ~faults
      schedule
  in
  match Complete.reads rep.history with
  | op :: _ ->
      Alcotest.(check bool) "read terminated" true
        (Option.get op.responded_at > 0);
      Alcotest.(check bool) "returned bottom" true
        (Histories.Op.read_result op = Some Bottom)
  | [] -> Alcotest.fail "read did not complete"

let test_optimized_reads_are_monotone_per_reader () =
  (* Session guarantee of the S5.1 cache: a reader never observes an
     older write than one it already returned (candidates are pruned
     below the cached timestamp). *)
  let rng = Sim.Prng.create ~seed:15 in
  let schedule =
    Core.Schedule.merge
      (List.init 10 (fun i ->
           (i * 60, Core.Schedule.Write (Workload.Generate.payload (i + 1)))))
      (Workload.Generate.poisson_reads ~rng ~readers:1 ~mean_gap:25.0
         ~horizon:650)
  in
  let rep =
    O.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:15 ~delay:uniform schedule
  in
  let index_of = function
    | Some Histories.Op.Bottom | None -> 0
    | Some (Value s) -> int_of_string (String.sub s 1 (String.length s - 1))
  in
  let reads =
    List.map
      (fun op -> index_of (Histories.Op.read_result op))
      (Complete.reads rep.history)
  in
  Alcotest.(check bool) "several reads happened" true (List.length reads >= 5);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "reader never goes back in time" true (monotone reads)

let test_read_burst_races () =
  (* Five readers firing bursts at the same instant exercise the
     per-reader tsr discipline at the objects; everything terminates in
     <= 2 rounds and the history is regular. *)
  let schedule =
    Core.Schedule.merge
      [
        (0, Core.Schedule.Write (Core.Value.v "v1"));
        (50, Core.Schedule.Write (Core.Value.v "v2"));
      ]
      (Core.Schedule.merge
         (Workload.Generate.read_burst ~readers:5 ~reads_per_reader:3 ~at:30)
         (Workload.Generate.read_burst ~readers:5 ~reads_per_reader:2 ~at:60))
  in
  let rep =
    R.run ~cfg:(Quorum.Config.optimal ~t:2 ~b:1) ~seed:16 ~delay:uniform schedule
  in
  Alcotest.(check int) "all ops complete" (List.length schedule)
    (Complete.count rep.history);
  Alcotest.(check bool) "regular" true
    (Histories.Checks.is_regular ~equal rep.history);
  Alcotest.(check bool) "reads within two rounds" true
    (List.for_all (fun r -> r <= 2) (Complete.read_rounds rep.history))

let test_report_determinism () =
  let go () =
    let rng = Sim.Prng.create ~seed:17 in
    let schedule =
      Workload.Generate.read_mostly ~rng ~writes:3 ~readers:2
        ~reads_per_reader:3 ~horizon:400
    in
    let rep =
      S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:17 ~delay:uniform
        ~faults:[ S.Byzantine { obj = 1; factory = Fault.Strategies.random_garbage } ]
        schedule
    in
    rep.history
  in
  Alcotest.(check bool) "identical histories" true (go () = go ())

let test_different_seed_differs () =
  let go seed =
    let rep =
      S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed ~delay:uniform
        [
          (0, Core.Schedule.Write (Core.Value.v "v1"));
          (50, Core.Schedule.Read { reader = 1 });
        ]
    in
    List.map
      (fun (op : string Histories.Op.t) -> op.responded_at)
      (Histories.Op.completed rep.history)
  in
  Alcotest.(check bool) "different seeds give different timings" true
    (go 1 <> go 2)

let test_max_events_guard () =
  (* A tiny budget stops the run midway without raising. *)
  let rep =
    S.run ~max_events:5 ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:18
      ~delay:uniform
      [ (0, Core.Schedule.Write (Core.Value.v "v1")) ]
  in
  Alcotest.(check int) "events capped" 5 rep.events_processed

(* A start the automaton refuses is a misuse of the protocol, not a
   fault: the run raises rather than record the op as open. *)
let test_refused_start_raises () =
  Alcotest.check_raises "writing bottom"
    (Invalid_argument "Scenario: writer_start: bottom is not a valid input value")
    (fun () ->
      ignore
        (S.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:19 ~delay:uniform
           [ (0, Core.Schedule.Write Core.Value.bottom) ]))

let suite =
  ( "scenario-edge",
    [
      Alcotest.test_case "writer crash mid-write" `Quick test_writer_crash_mid_write;
      Alcotest.test_case "writer crash before any ack" `Quick
        test_writer_crash_before_any_ack;
      Alcotest.test_case "optimized reads monotone" `Quick
        test_optimized_reads_are_monotone_per_reader;
      Alcotest.test_case "read burst races" `Quick test_read_burst_races;
      Alcotest.test_case "report determinism" `Quick test_report_determinism;
      Alcotest.test_case "different seed differs" `Quick test_different_seed_differs;
      Alcotest.test_case "max_events guard" `Quick test_max_events_guard;
      Alcotest.test_case "a refused start raises" `Quick
        test_refused_start_raises;
    ] )
