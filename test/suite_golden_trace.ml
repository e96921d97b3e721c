(* Golden-trace determinism: the span JSONL export is a pure function of
   (protocol, cfg, seed, delay, schedule) — byte-identical across runs in
   one process, across processes, and across commits.  The checked-in
   golden files pin the exact byte stream; regenerate them (see
   test/golden/README.md) only for a deliberate format change. *)

module Safe = Core.Scenario.Make (Core.Proto_safe)
module Regular = Core.Scenario.Make (Core.Proto_regular.Plain)

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

(* Exactly the workload `robustread trace -p <proto> --writes 2 --reads 2
   --seed 42` drives, so the goldens are regenerable from the CLI (see
   golden/README.md). *)
let schedule =
  let rng = Sim.Prng.create ~seed:42 in
  Core.Schedule.merge
    (Workload.Generate.sequential ~writes:2 ~readers:2 ~gap:60)
    (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:2
       ~reads_per_reader:2 ~horizon:720)

let cfg = Quorum.Config.optimal ~t:1 ~b:1

let safe_export () =
  let rep = Safe.run ~trace:true ~cfg ~seed:42 ~delay schedule in
  Obs.Export.spans_jsonl rep.spans

let regular_export () =
  let rep = Regular.run ~trace:true ~cfg ~seed:42 ~delay schedule in
  Obs.Export.spans_jsonl rep.spans

let read_golden name =
  (* cwd is test/ under `dune runtest` but the project root under
     `dune exec test/test_main.exe` — accept both. *)
  let candidates =
    [
      Filename.concat "golden" name;
      Filename.concat (Filename.concat "test" "golden") name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail ("golden file not found: " ^ name)
  | Some path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let test_two_runs_identical export () =
  Alcotest.(check string) "byte-identical across runs" (export ()) (export ())

let test_matches_golden name export () =
  Alcotest.(check string)
    (name ^ " matches checked-in golden")
    (read_golden name) (export ())

let test_metrics_two_runs_identical () =
  let collect () =
    let m = Obs.Metrics.create () in
    ignore (Safe.run ~metrics:m ~cfg ~seed:42 ~delay schedule);
    Obs.Export.metrics_jsonl m
  in
  Alcotest.(check string) "metrics byte-identical" (collect ()) (collect ())

let suite =
  ( "golden-trace",
    [
      Alcotest.test_case "safe: two runs byte-identical" `Quick
        (test_two_runs_identical safe_export);
      Alcotest.test_case "regular: two runs byte-identical" `Quick
        (test_two_runs_identical regular_export);
      Alcotest.test_case "safe matches golden" `Quick
        (test_matches_golden "safe_spans.jsonl" safe_export);
      Alcotest.test_case "regular matches golden" `Quick
        (test_matches_golden "regular_spans.jsonl" regular_export);
      Alcotest.test_case "metrics export byte-identical" `Quick
        test_metrics_two_runs_identical;
    ] )
