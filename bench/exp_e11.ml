(* E11 -- scalability of the emulation: how the paper's protocols behave
   as the system grows (more base objects, more readers).

   The theory says rounds are flat (2/2) at any scale; what grows is
   message count (Theta(S) per round) and simulated latency tails
   (waiting for S-t of S replies).  This table quantifies both and
   doubles as a simulator throughput check (wall-clock column). *)

let run_one ~t ~b ~readers ~seed =
  let cfg = Quorum.Config.optimal ~t ~b in
  let module Sc = Core.Scenario.Make (Core.Proto_safe) in
  let rng = Sim.Prng.create ~seed in
  let schedule =
    Core.Schedule.merge
      (Workload.Generate.sequential ~writes:5 ~readers ~gap:50)
      (Workload.Generate.read_mostly ~rng ~writes:0 ~readers
         ~reads_per_reader:10
         ~horizon:(50 * 5 * (readers + 1)))
  in
  let started = Exp_common.now_s () in
  let rep =
    Sc.run ~max_events:10_000_000 ~cfg ~seed
      ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
      ~faults:Sc.no_faults schedule
  in
  let elapsed = Exp_common.now_s () -. started in
  let reads = Stats.Summary.create () in
  List.iter
    (fun (o : Sc.outcome) ->
      match o.op with
      | Core.Schedule.Read _ ->
          Stats.Summary.add_int reads (o.completed_at - o.invoked_at)
      | Core.Schedule.Write _ -> ())
    rep.outcomes;
  ( cfg,
    List.length schedule,
    List.length rep.outcomes,
    rep.messages_delivered,
    Stats.Summary.median reads,
    Stats.Summary.percentile reads 99.0,
    Histories.Checks.is_safe ~equal:String.equal rep.history,
    elapsed )

let run () =
  Exp_common.section "E11: scalability (safe protocol, fault-free)";
  let table =
    Stats.Table.create
      ~headers:
        [
          "t"; "b"; "S"; "readers"; "ops"; "messages"; "rd p50"; "rd p99";
          "safe?"; "wall (s)";
        ]
  in
  List.iter
    (fun (t, b, readers) ->
      let cfg, total, done_, msgs, p50, p99, safe, wall =
        run_one ~t ~b ~readers ~seed:3
      in
      Stats.Table.add_row table
        [
          Stats.Table.cell_int t;
          Stats.Table.cell_int b;
          Stats.Table.cell_int cfg.Quorum.Config.s;
          Stats.Table.cell_int readers;
          Printf.sprintf "%d/%d" done_ total;
          Stats.Table.cell_int msgs;
          Stats.Table.cell_float p50;
          Stats.Table.cell_float p99;
          Stats.Table.cell_bool safe;
          Stats.Table.cell_float ~decimals:3 wall;
        ])
    [
      (1, 1, 1);
      (1, 1, 4);
      (1, 1, 16);
      (2, 2, 4);
      (4, 4, 4);
      (8, 8, 4);
      (16, 16, 4);
      (4, 4, 16);
    ];
  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: operations and safety are scale-invariant; message";
  Exp_common.note
    "count grows linearly in S and in the number of reads; read latency";
  Exp_common.note
    "p50 stays ~1 round-trip (straggler-trimmed: the reader waits for only";
  Exp_common.note "S-t of S replies, so larger S does not stretch the tail)."
