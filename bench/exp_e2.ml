(* E2 -- Proposition 2: the safe storage's round complexity.

   Sweep (t, b) and fault mixes; every WRITE must take exactly 2 rounds
   and every READ at most 2, whatever the adversary does -- with the
   fraction of reads that decide on round-1 data reported as the "fast
   read" share (common-case latency). *)

let grid = [ (1, 1); (2, 1); (2, 2); (3, 2); (3, 3) ]

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

let fault_mixes cfg =
  let t = cfg.Quorum.Config.t and b = cfg.Quorum.Config.b in
  let crash_times = List.init (t - b) (fun i -> (Sim.Proc_id.Obj (b + 1 + i), 50)) in
  let byz =
    List.init b (fun i ->
        ((i + 1), Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:9))
  in
  [
    ("none", [], []);
    ("crash t-b", crash_times, []);
    ("byz b", [], byz);
    ("byz b + crash", crash_times, byz);
  ]

let run () =
  Exp_common.section "E2: safe storage (Figures 2-4) round complexity";
  Exp_common.note
    "Paper claim: both READ and WRITE complete in at most 2 rounds at";
  Exp_common.note "optimal resilience S = 2t+b+1, for any failure pattern.";
  let table =
    Stats.Table.create
      ~headers:
        [
          "t"; "b"; "S"; "faults"; "ops"; "wr rnds (max)"; "rd rnds (mean)";
          "rd rnds (max)"; "fast reads"; "safe?";
        ]
  in
  List.iter
    (fun (t, b) ->
      let cfg = Quorum.Config.optimal ~t ~b in
      List.iter
        (fun (fname, crashes, byz) ->
          let rng = Sim.Prng.create ~seed:(t * 100 + b) in
          let schedule =
            Core.Schedule.merge
              (Workload.Generate.sequential ~writes:5 ~readers:2 ~gap:60)
              (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:2
                 ~reads_per_reader:5 ~horizon:900)
          in
          let s =
            Exp_common.simulate (module Core.Proto_safe) ~cfg ~byz
              ~seed:((t * 10) + b) ~delay ~crashes schedule
          in
          Stats.Table.add_row table
            [
              Stats.Table.cell_int t;
              Stats.Table.cell_int b;
              Stats.Table.cell_int cfg.Quorum.Config.s;
              fname;
              Printf.sprintf "%d/%d" s.completed s.total;
              Stats.Table.cell_int s.write_rounds_max;
              Stats.Table.cell_float s.read_rounds_mean;
              Stats.Table.cell_int s.read_rounds_max;
              Printf.sprintf "%.0f%%" (100.0 *. s.fast_read_fraction);
              Stats.Table.cell_bool s.safe;
            ])
        (fault_mixes cfg);
      Stats.Table.add_separator table)
    grid;
  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: wr rounds = 2 always; rd rounds <= 2 always; the fast";
  Exp_common.note
    "share drops only when Byzantine forgeries force genuine second rounds."
