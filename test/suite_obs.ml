(* The observability layer: histogram algebra (merge is associative and
   commutative, quantiles agree with Stats.Summary at bucket resolution),
   registry aggregation, span invariants over real scenario runs, and the
   byte-determinism of the JSONL exporters. *)

module H = Obs.Metrics.Histogram
module S = Core.Scenario.Make (Core.Proto_safe)

let uniform = Sim.Delay.uniform ~lo:1 ~hi:10

(* ----- histogram units -------------------------------------------------- *)

let test_histogram_bad_bounds () =
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.create: no bounds")
    (fun () -> ignore (H.create ~bounds:[||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Histogram.create: bounds not strictly increasing")
    (fun () -> ignore (H.create ~bounds:[| 1.0; 1.0 |]))

let test_histogram_placement () =
  let h = H.create ~bounds:[| 1.0; 2.0; 5.0 |] in
  List.iter (H.observe h) [ 1.0; 1.5; 2.0; 5.0; 7.0 ];
  (* inclusive upper bounds: 1.0 -> b0, 1.5 and 2.0 -> b1, 5.0 -> b2,
     7.0 -> overflow *)
  Alcotest.(check (array int)) "counts" [| 1; 2; 1; 1 |] (H.counts h);
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 16.5 (H.sum h);
  Alcotest.(check (float 1e-9)) "mean" 3.3 (H.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (H.min_exn h);
  Alcotest.(check (float 1e-9)) "max" 7.0 (H.max_exn h)

let test_histogram_buckets () =
  let h = H.create ~bounds:[| 2.0; 4.0 |] in
  H.observe_int h 1;
  H.observe_int h 3;
  H.observe_int h 9;
  match H.buckets h with
  | [ (lo0, hi0, c0); (_, hi1, c1); (lo2, hi2, c2) ] ->
      Alcotest.(check bool) "first lo = -inf" true (lo0 = neg_infinity);
      Alcotest.(check (float 1e-9)) "first hi" 2.0 hi0;
      Alcotest.(check int) "b0" 1 c0;
      Alcotest.(check (float 1e-9)) "second hi" 4.0 hi1;
      Alcotest.(check int) "b1" 1 c1;
      Alcotest.(check (float 1e-9)) "overflow lo" 4.0 lo2;
      Alcotest.(check bool) "overflow hi = inf" true (hi2 = infinity);
      Alcotest.(check int) "overflow" 1 c2
  | _ -> Alcotest.fail "expected 3 buckets"

let test_histogram_merge_mismatch () =
  let a = H.create ~bounds:[| 1.0; 2.0 |] in
  let b = H.create ~bounds:[| 1.0; 3.0 |] in
  Alcotest.(check bool) "incompatible" false (H.compatible a b);
  Alcotest.check_raises "merge raises"
    (Invalid_argument "Histogram.merge: bounds differ") (fun () ->
      ignore (H.merge a b))

let test_histogram_quantile_edges () =
  let h = H.create ~bounds:Obs.Metrics.round_bounds in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (H.quantile h 50.0));
  H.observe_int h 2;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.quantile: p not in [0,100]") (fun () ->
      ignore (H.quantile h 101.0));
  Alcotest.(check (float 1e-9)) "single sample" 2.0 (H.quantile h 50.0);
  (* overflow bucket reports the observed maximum, not infinity *)
  H.observe h 1000.0;
  Alcotest.(check (float 1e-9)) "overflow = max" 1000.0 (H.quantile h 100.0)

(* ----- registry units --------------------------------------------------- *)

let test_registry_counters () =
  let m = Obs.Metrics.create () in
  Alcotest.(check int) "untouched counter" 0 (Obs.Metrics.counter_value m "x");
  Obs.Metrics.incr m "b";
  Obs.Metrics.add m "a" 5;
  Obs.Metrics.incr m "b";
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("a", 5); ("b", 2) ]
    (Obs.Metrics.counters m)

let test_registry_merge_into () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add a "c" 2;
  Obs.Metrics.add b "c" 3;
  let observe reg v =
    Obs.Metrics.histogram_observe_int
      (Obs.Metrics.histogram reg "h" ~bounds:Obs.Metrics.round_bounds)
      v
  in
  observe a 1;
  observe b 2;
  Obs.Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "counters add" 5 (Obs.Metrics.counter_value a "c");
  (match Obs.Metrics.find_histogram a "h" with
  | Some h -> Alcotest.(check int) "histograms merge" 2 (H.count h)
  | None -> Alcotest.fail "merged histogram missing");
  (* src untouched *)
  Alcotest.(check int) "src counter" 3 (Obs.Metrics.counter_value b "c");
  match Obs.Metrics.find_histogram b "h" with
  | Some h -> Alcotest.(check int) "src histogram" 1 (H.count h)
  | None -> Alcotest.fail "src histogram missing"

(* A handle registers its metric on first use, so an untouched one stays
   absent; on [off] nothing is recorded; a merge into the registry keeps
   a handle's histogram the registry's; the wire table names each
   (class, stage) counter as the string-keyed path did, past round 4
   and for [other] too. *)
let test_handles () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "c" and idle = Obs.Metrics.counter m "idle" in
  let h = Obs.Metrics.histogram m "h" ~bounds:Obs.Metrics.round_bounds in
  Alcotest.(check (list string)) "nothing before first use" []
    (List.map fst (Obs.Metrics.counters m));
  Obs.Metrics.counter_incr c;
  Obs.Metrics.counter_incr c;
  Obs.Metrics.histogram_observe_int h 1;
  ignore idle;
  Alcotest.(check (list (pair string int))) "touched only" [ ("c", 2) ]
    (Obs.Metrics.counters m);
  let other = Obs.Metrics.create () in
  Obs.Metrics.histogram_observe_int
    (Obs.Metrics.histogram other "h" ~bounds:Obs.Metrics.round_bounds)
    2;
  Obs.Metrics.merge_into ~dst:m other;
  Obs.Metrics.histogram_observe_int h 3;
  (match Obs.Metrics.find_histogram m "h" with
  | Some x -> Alcotest.(check int) "the handle survives a merge" 3 (H.count x)
  | None -> Alcotest.fail "histogram missing");
  let w = Obs.Metrics.wire m Fun.id in
  List.iter
    (fun (stage, cls) -> Obs.Metrics.wire_incr w stage cls)
    Obs.Wire.
      [
        (Sent, read ~round:1 ~request:true);
        (Sent, read ~round:1 ~request:true);
        (Delivered, write ~round:6 ~request:false);
        (Dropped, other);
      ];
  Alcotest.(check (list (pair string int)))
    "wire counters"
    [
      ("c", 2); ("wire.other.dropped", 1); ("wire.read.r1.req.sent", 2);
      ("wire.write.r6.ack.delivered", 1);
    ]
    (Obs.Metrics.counters m);
  Alcotest.(check int) "requests sent" 2 (Obs.Metrics.requests_sent m);
  let off = Obs.Metrics.off in
  Obs.Metrics.counter_incr (Obs.Metrics.counter off "c");
  Obs.Metrics.histogram_observe_int
    (Obs.Metrics.histogram off "h" ~bounds:Obs.Metrics.round_bounds)
    1;
  Obs.Metrics.wire_incr (Obs.Metrics.wire off Fun.id) Sent Obs.Wire.other;
  Obs.Metrics.incr off "rare";
  Obs.Metrics.merge_into ~dst:off m;
  Alcotest.(check int) "off records nothing" 0
    (List.length (Obs.Metrics.counters off)
    + List.length (Obs.Metrics.histograms off))

let test_wire_rendering () =
  Alcotest.(check string) "read req" "read.r1.req"
    (Obs.Wire.to_string (Obs.Wire.read ~round:1 ~request:true));
  Alcotest.(check string) "write ack" "write.r2.ack"
    (Obs.Wire.to_string (Obs.Wire.write ~round:2 ~request:false));
  Alcotest.(check string) "other" "other" (Obs.Wire.to_string Obs.Wire.other)

(* ----- qcheck: histogram algebra ---------------------------------------- *)

let of_samples xs =
  let h = H.create ~bounds:Obs.Metrics.latency_bounds in
  List.iter (H.observe h) xs;
  h

let samples_gen = QCheck.(list_of_size (Gen.int_range 0 60) (float_range 0. 3000.))

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative" ~count:200
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = of_samples xs and b = of_samples ys in
      H.equal (H.merge a b) (H.merge b a))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:200
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = of_samples xs and b = of_samples ys and c = of_samples zs in
      H.equal (H.merge (H.merge a b) c) (H.merge a (H.merge b c)))

(* The histogram must agree with the exact Stats.Summary on count and
   mean, and its nearest-rank quantile must be the upper bound of the
   bucket holding Summary's nearest-rank percentile (the observed max
   for the overflow bucket) — "within bucket resolution". *)
let qcheck_agrees_with_summary =
  QCheck.Test.make ~name:"histogram agrees with Summary at bucket resolution"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 80) (float_range 0. 4000.))
        (float_range 1. 100.))
    (fun (xs, p) ->
      let h = of_samples xs in
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let counts_agree = H.count h = Stats.Summary.count s in
      let means_agree = abs_float (H.mean h -. Stats.Summary.mean s) < 1e-6 in
      let sq = Stats.Summary.percentile s p and hq = H.quantile h p in
      let expected =
        match
          Array.fold_left
            (fun acc bnd ->
              match acc with Some _ -> acc | None -> if sq <= bnd then Some bnd else None)
            None Obs.Metrics.latency_bounds
        with
        | Some bnd -> bnd
        | None -> Stats.Summary.max s (* overflow bucket *)
      in
      counts_agree && means_agree && abs_float (hq -. expected) < 1e-9)

(* ----- spans over real runs --------------------------------------------- *)

let schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "v1"));
    (40, Core.Schedule.Read { reader = 1 });
    (90, Core.Schedule.Write (Core.Value.v "v2"));
    (130, Core.Schedule.Read { reader = 2 });
    (130, Core.Schedule.Read { reader = 1 });
  ]

let run_spans ~seed =
  let rep =
    S.run ~trace:true
      ~cfg:(Quorum.Config.optimal ~t:1 ~b:1)
      ~seed ~delay:uniform schedule
  in
  rep

let qcheck_span_invariants =
  QCheck.Test.make ~name:"span invariants on random runs" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rep = run_spans ~seed in
      let s = 4 in
      List.length rep.spans = List.length schedule
      && List.for_all
           (fun (sp : Obs.Span.t) ->
             let ends_after =
               match sp.completed_at with
               | Some e -> e >= sp.started_at
               | None -> true
             in
             ends_after && sp.rounds >= 1
             && List.length (Obs.Span.transitions sp) = sp.rounds - 1
             && List.for_all
                  (fun o -> o >= 1 && o <= s)
                  (Obs.Span.contacted sp)
             && sp.trace_first >= 0
             && (not (Obs.Span.completed sp))
                || sp.trace_len >= 0)
           rep.spans)

let qcheck_span_times_match_outcomes =
  QCheck.Test.make ~name:"completed spans mirror scenario outcomes" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rep = run_spans ~seed in
      let completed = List.filter Obs.Span.completed rep.spans in
      let ops = Histories.Op.completed rep.history in
      List.length completed = List.length ops
      && List.for_all
           (fun (op : string Histories.Op.t) ->
             List.exists
               (fun (sp : Obs.Span.t) ->
                 sp.started_at = op.invoked_at
                 && sp.completed_at = op.responded_at
                 && sp.reported_rounds = op.rounds)
               completed)
           ops)

(* ----- export determinism ----------------------------------------------- *)

let test_span_export_deterministic () =
  let a = run_spans ~seed:7 and b = run_spans ~seed:7 in
  Alcotest.(check string) "span JSONL byte-identical"
    (Obs.Export.spans_jsonl a.spans)
    (Obs.Export.spans_jsonl b.spans)

let test_metrics_export_deterministic () =
  let collect () =
    let m = Obs.Metrics.create () in
    let rep =
      S.run ~metrics:m
        ~cfg:(Quorum.Config.optimal ~t:1 ~b:1)
        ~seed:11 ~delay:uniform schedule
    in
    ignore rep;
    Obs.Export.metrics_jsonl ~labels:[ ("protocol", "safe") ] m
  in
  Alcotest.(check string) "metrics JSONL byte-identical" (collect ()) (collect ())

let test_json_escaping () =
  let open Obs.Export.Json in
  Alcotest.(check string) "escapes" {|"a\"b\\c\n\u0001"|}
    (to_string (Str "a\"b\\c\n\001"));
  Alcotest.(check string) "ints as ints" "42" (to_string (Int 42));
  Alcotest.(check string) "integral float" "7" (to_string (Float 7.0));
  Alcotest.(check string) "non-finite" {|"inf"|} (to_string (Float infinity))

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram bad bounds" `Quick test_histogram_bad_bounds;
      Alcotest.test_case "histogram placement" `Quick test_histogram_placement;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "histogram merge mismatch" `Quick
        test_histogram_merge_mismatch;
      Alcotest.test_case "histogram quantile edges" `Quick
        test_histogram_quantile_edges;
      Alcotest.test_case "registry counters" `Quick test_registry_counters;
      Alcotest.test_case "registry merge_into" `Quick test_registry_merge_into;
      Alcotest.test_case "metric handles" `Quick test_handles;
      Alcotest.test_case "wire rendering" `Quick test_wire_rendering;
      Alcotest.test_case "span export deterministic" `Quick
        test_span_export_deterministic;
      Alcotest.test_case "metrics export deterministic" `Quick
        test_metrics_export_deterministic;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      QCheck_alcotest.to_alcotest qcheck_merge_commutative;
      QCheck_alcotest.to_alcotest qcheck_merge_associative;
      QCheck_alcotest.to_alcotest qcheck_agrees_with_summary;
      QCheck_alcotest.to_alcotest qcheck_span_invariants;
      QCheck_alcotest.to_alcotest qcheck_span_times_match_outcomes;
    ] )
