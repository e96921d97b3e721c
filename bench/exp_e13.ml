(* E13 -- multicore campaign throughput and hot-path engine speed.

   Three measurements, one JSON artifact (BENCH_e13.json):

   1. Campaign scaling: the E12-style chaos sweep timed serially
      (jobs=1) and then at each domain count in E13_JOBS, with every
      parallel run checked byte-for-byte against the serial survival
      matrix, metrics table and per-cell metrics JSONL.  Speedup is
      wall-clock serial/parallel; on a 1-core host it is ~1.0 by
      construction and only CI's multi-core runners show scaling.

   2. Span determinism probe: the same batch of scenario runs fanned
      through Exec.Pool at jobs=1 and jobs=4, comparing the
      concatenated span JSONL bytes.

   3. Single-run hot path: one large read-mostly workload through the
      engine with metrics off and on, reporting delivered messages per
      second and the observability overhead the interned-counter fast
      path leaves behind.

   Scale is environment-tunable so CI can run a smoke version:
     E13_SEEDS (20)   seeds per protocol cell
     E13_PLANS (3)    fault plans per seed
     E13_JOBS (2,4,8) comma-separated domain counts to benchmark
     E13_OUT  (BENCH_e13.json) output path *)

let jobs_list () =
  match Sys.getenv_opt "E13_JOBS" with
  | None -> [ 2; 4; 8 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some n when n >= 1 -> n
             | _ ->
                 Printf.eprintf "E13_JOBS expects e.g. \"2,4,8\" (got %S)\n" s;
                 exit 2)

let timed f =
  let t0 = Exp_common.now_s () in
  let r = f () in
  (r, Exp_common.now_s () -. t0)

(* Every observable byte of a campaign result: the survival matrix, the
   per-cell metrics table, and each cell's metrics JSONL export.  Two
   sweeps agree on this string iff they are indistinguishable to every
   downstream consumer. *)
let fingerprint cells =
  String.concat ""
    (Stats.Table.to_string (Fault.Campaign.matrix_table cells)
     :: Stats.Table.to_string (Fault.Campaign.metrics_table cells)
     :: List.map
          (fun (c : Fault.Campaign.cell) ->
            Obs.Export.metrics_jsonl
              ~labels:
                [ ("protocol", Fault.Campaign.protocol_name c.protocol) ]
              c.metrics)
          cells)

let engine_events cells =
  List.fold_left
    (fun acc (c : Fault.Campaign.cell) ->
      acc + Obs.Metrics.counter_value c.metrics "engine.events")
    0 cells

(* Fan a batch of deterministic scenario runs across the pool and
   concatenate their span exports in input order. *)
let span_probe ~jobs =
  let module Sc = Core.Scenario.Make (Core.Proto_safe) in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let one seed =
    let rng = Sim.Prng.create ~seed in
    let schedule =
      Workload.Generate.read_mostly ~rng ~writes:3 ~readers:2
        ~reads_per_reader:4 ~horizon:2_000
    in
    let rep =
      Sc.run ~cfg ~seed ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10) schedule
    in
    Obs.Export.spans_jsonl rep.spans
  in
  String.concat "" (Exec.Pool.map ~jobs one (List.init 8 (fun i -> i + 1)))

(* One big single-engine run: the workload the hot-path work (interned
   counters, fault-free send fast path, dense handler tables, O(1)
   queue-depth) is aimed at. *)
let single_run ~metrics () =
  let module Sc = Core.Scenario.Make (Core.Proto_regular.Plain) in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let seed = 7 in
  let rng = Sim.Prng.create ~seed in
  let schedule =
    Core.Schedule.merge
      (Workload.Generate.sequential ~writes:40 ~readers:6 ~gap:60)
      (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:6
         ~reads_per_reader:400 ~horizon:120_000)
  in
  let registry = if metrics then Some (Obs.Metrics.create ()) else None in
  let rep =
    Sc.run ?metrics:registry ~cfg ~seed
      ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
      schedule
  in
  rep.messages_delivered

let run () =
  let seeds_n = Exp_common.getenv_int "E13_SEEDS" 20 in
  let plans = Exp_common.getenv_int "E13_PLANS" 3 in
  let jobs = jobs_list () in
  let out = Option.value (Sys.getenv_opt "E13_OUT") ~default:"BENCH_e13.json" in
  let cores = Exec.Pool.recommended_jobs () in
  Exp_common.section
    (Printf.sprintf
       "E13: multicore campaign + hot-path speed (%d seeds x %d plans; host \
        cores %d)"
       seeds_n plans cores);
  let seeds = List.init seeds_n (fun i -> i + 1) in
  let protocols = Fault.Campaign.campaign_protocols in
  let sweep ~jobs () =
    Fault.Campaign.sweep ~jobs ~budget:Fault.Plan.medium ~plans_per_seed:plans
      ~protocols ~t:1 ~b:1 ~seeds ()
  in
  let serial_cells, serial_wall = timed (sweep ~jobs:1) in
  let serial_fp = fingerprint serial_cells in
  let runs = List.length protocols * seeds_n * plans in
  Exp_common.note "serial (jobs=1): %.2fs, %.1f runs/s" serial_wall
    (float_of_int runs /. serial_wall);
  let parallel =
    List.map
      (fun j ->
        let cells, wall = timed (sweep ~jobs:j) in
        let identical = String.equal (fingerprint cells) serial_fp in
        Exp_common.note "jobs=%d: %.2fs, speedup %.2fx, byte-identical: %b" j
          wall (serial_wall /. wall) identical;
        (j, wall, identical))
      jobs
  in
  let all_identical = List.for_all (fun (_, _, id) -> id) parallel in
  let spans_identical =
    String.equal (span_probe ~jobs:1) (span_probe ~jobs:4)
  in
  Exp_common.note "span JSONL jobs=1 vs jobs=4 byte-identical: %b"
    spans_identical;
  let msgs_off, wall_off = timed (single_run ~metrics:false) in
  let msgs_on, wall_on = timed (single_run ~metrics:true) in
  let rate_off = float_of_int msgs_off /. wall_off in
  let rate_on = float_of_int msgs_on /. wall_on in
  Exp_common.note
    "single run: %.0f msgs/s metrics-off, %.0f msgs/s metrics-on (%.1f%% \
     overhead)"
    rate_off rate_on
    ((wall_on -. wall_off) /. wall_off *. 100.);
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"bench\": \"e13\",\n";
  Printf.bprintf buf "  \"host_cores\": %d,\n" cores;
  Printf.bprintf buf "  \"seeds\": %d,\n" seeds_n;
  Printf.bprintf buf "  \"plans_per_seed\": %d,\n" plans;
  Printf.bprintf buf "  \"campaign_runs\": %d,\n" runs;
  Printf.bprintf buf "  \"engine_events\": %d,\n" (engine_events serial_cells);
  Printf.bprintf buf
    "  \"serial\": { \"jobs\": 1, \"wall_s\": %.4f, \"runs_per_s\": %.1f },\n"
    serial_wall
    (float_of_int runs /. serial_wall);
  Printf.bprintf buf "  \"parallel\": [\n";
  List.iteri
    (fun i (j, wall, identical) ->
      Printf.bprintf buf
        "    { \"jobs\": %d, \"wall_s\": %.4f, \"runs_per_s\": %.1f, \
         \"speedup\": %.2f, \"byte_identical\": %b }%s\n"
        j wall
        (float_of_int runs /. wall)
        (serial_wall /. wall) identical
        (if i = List.length parallel - 1 then "" else ","))
    parallel;
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf "  \"byte_identical\": %b,\n" all_identical;
  Printf.bprintf buf "  \"span_jsonl_identical\": %b,\n" spans_identical;
  Printf.bprintf buf
    "  \"single_run\": { \"messages\": %d, \"msgs_per_s_metrics_off\": %.0f, \
     \"msgs_per_s_metrics_on\": %.0f, \"metrics_overhead_pct\": %.1f }\n"
    msgs_off rate_off rate_on
    ((wall_on -. wall_off) /. wall_off *. 100.);
  Printf.bprintf buf "}\n";
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out;
  if not (all_identical && spans_identical) then begin
    Exp_common.note "FATAL: parallel execution changed observable bytes";
    exit 1
  end
