(* Round-count conformance, asserted on spans: the paper's Theorems 1-4
   say every READ and WRITE of the safe and regular protocols completes
   in exactly 2 rounds, under any within-budget fault plan — and
   Theorem 4's fast-safe reads in exactly 1 round at S >= 2t+2b+1.
   Spans count rounds *initiated*, so this is the client-visible message
   pattern, not the early-decide shortcut [reported_rounds] records.  A
   metered run observes each completed span's [rounds] in the
   op.read.rounds / op.write.rounds histograms, and counts every span as
   completed or open, so the assertions read the run's registry. *)

let spans m =
  List.fold_left
    (fun n name -> n + Obs.Metrics.counter_value m name)
    0
    [ "op.read.completed"; "op.read.open"; "op.write.completed"; "op.write.open" ]

(* Every completed span of [kind] ("read" or "write") initiated
   [expect] rounds. *)
let span_rounds_ok m kind ~expect =
  match Obs.Metrics.find_histogram m ("op." ^ kind ^ ".rounds") with
  | None -> true
  | Some h ->
      Obs.Metrics.Histogram.count h = 0
      || Obs.Metrics.Histogram.min_exn h = float_of_int expect
         && Obs.Metrics.Histogram.max_exn h = float_of_int expect

let metered_run protocol ~cfg ~seed plan =
  let m = Obs.Metrics.create () in
  ignore (Fault.Campaign.run_plan ~metrics:m protocol ~cfg ~seed plan);
  m

let check_protocol ~name protocol ~expect_read ~expect_write =
  QCheck.Test.make
    ~name:(name ^ ": completed spans have the theorem's round count")
    ~count:40
    QCheck.(int_range 1 50_000)
    (fun seed ->
      let cfg = Fault.Campaign.default_cfg protocol ~t:1 ~b:1 in
      let rng = Sim.Prng.create ~seed in
      let plan = Fault.Plan.gen ~rng ~cfg ~budget:Fault.Plan.medium in
      let m = metered_run protocol ~cfg ~seed plan in
      spans m > 0
      && span_rounds_ok m "read" ~expect:expect_read
      && span_rounds_ok m "write" ~expect:expect_write)

let qcheck_safe =
  check_protocol ~name:"safe" Fault.Campaign.Safe ~expect_read:2 ~expect_write:2

let qcheck_regular =
  check_protocol ~name:"regular" Fault.Campaign.Regular ~expect_read:2
    ~expect_write:2

let qcheck_regular_opt =
  check_protocol ~name:"regular-opt" Fault.Campaign.Regular_opt ~expect_read:2
    ~expect_write:2

let qcheck_fast_safe =
  check_protocol ~name:"fast-safe" Fault.Campaign.Fast_safe ~expect_read:1
    ~expect_write:1

(* The metrics pipeline must agree with the spans: a campaign cell's
   op.read.rounds histogram concentrates every observation on the
   theorem's round count. *)
let test_cell_round_histograms () =
  let cell =
    List.hd (Fault.Campaign.sweep ~protocols:[ Safe ] ~t:1 ~b:1 ~seeds:[ 1; 2; 3 ] ())
  in
  match Obs.Metrics.find_histogram cell.metrics "op.read.rounds" with
  | None -> Alcotest.fail "cell has no op.read.rounds histogram"
  | Some h ->
      let completed =
        Obs.Metrics.counter_value cell.metrics "op.read.completed"
      in
      Alcotest.(check bool) "some reads completed" true (completed > 0);
      Alcotest.(check int) "histogram covers every completed read" completed
        (Obs.Metrics.Histogram.count h);
      Alcotest.(check (float 1e-9)) "all reads took 2 rounds (min)" 2.0
        (Obs.Metrics.Histogram.min_exn h);
      Alcotest.(check (float 1e-9)) "all reads took 2 rounds (max)" 2.0
        (Obs.Metrics.Histogram.max_exn h)

(* Negative control: the conformance predicate is falsifiable — ABD reads
   at its crash-only configuration are 1-round (no write-back needed in a
   sequential schedule), so demanding 2 everywhere must fail. *)
let test_predicate_is_falsifiable () =
  let cfg = Fault.Campaign.default_cfg Fault.Campaign.Abd ~t:1 ~b:0 in
  let m =
    metered_run Fault.Campaign.Abd ~cfg ~seed:1 (Fault.Plan.empty ~horizon:800)
  in
  Alcotest.(check bool) "ABD spans exist" true (spans m > 0);
  Alcotest.(check bool) "2-round claim fails for ABD" false
    (span_rounds_ok m "read" ~expect:2 && span_rounds_ok m "write" ~expect:2)

let suite =
  ( "span-conformance",
    [
      QCheck_alcotest.to_alcotest qcheck_safe;
      QCheck_alcotest.to_alcotest qcheck_regular;
      QCheck_alcotest.to_alcotest qcheck_regular_opt;
      QCheck_alcotest.to_alcotest qcheck_fast_safe;
      Alcotest.test_case "cell round histograms" `Quick
        test_cell_round_histograms;
      Alcotest.test_case "predicate falsifiable" `Quick
        test_predicate_is_falsifiable;
    ] )
