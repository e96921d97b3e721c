(* E7 -- latency distributions (the S6 "how fast" question, empirically):
   simulated read/write latency per protocol and delay model.  A round
   trip costs two one-way delays, so 2-round protocols should sit near
   2x the per-round cost of 1-round ones, with tails governed by the
   straggler order statistics of waiting for S-t replies. *)

let models =
  [
    ("uniform(1,10)", Sim.Delay.uniform ~lo:1 ~hi:10);
    ("exponential(5)", Sim.Delay.exponential ~mean:5.0);
    ( "bimodal(2|40)",
      Sim.Delay.bimodal ~fast:(Sim.Delay.constant 2)
        ~slow:(Sim.Delay.constant 40) ~slow_fraction:0.1 );
  ]

let contenders =
  [
    Exp_common.safe_contender;
    Exp_common.regular_opt_contender;
    Exp_common.abd_contender;
    Exp_common.auth_contender;
    Exp_common.nonmod_contender;
  ]

let contention_sweep () =
  Exp_common.note "";
  Exp_common.note
    "Contention sweep (regular protocol): does read/write overlap force";
  Exp_common.note "second rounds?";
  let table =
    Stats.Table.create
      ~headers:
        [ "write every"; "reads"; "fast reads"; "rd rnds mean"; "rd p50";
          "rd p99"; "regular?" ]
  in
  List.iter
    (fun every ->
      let summaries =
        List.map
          (fun seed ->
            let schedule =
              Workload.Generate.write_storm ~writes:20 ~readers:2 ~every
            in
            Exp_common.run ~seed
              ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
              ~crashes:[] ~use_byz:false Exp_common.regular_contender schedule)
          [ 1; 2; 3 ]
      in
      let reads =
        List.fold_left
          (fun acc s -> Stats.Summary.merge acc s.Exp_common.read_latency)
          (Stats.Summary.create ()) summaries
      in
      let avg f =
        List.fold_left (fun acc s -> acc +. f s) 0.0 summaries
        /. float_of_int (List.length summaries)
      in
      Stats.Table.add_row table
        [
          Stats.Table.cell_int every;
          Stats.Table.cell_int (Stats.Summary.count reads);
          Printf.sprintf "%.0f%%"
            (100.0 *. avg (fun s -> s.Exp_common.fast_read_fraction));
          Stats.Table.cell_float (avg (fun s -> s.Exp_common.read_rounds_mean));
          Stats.Table.cell_float (Stats.Summary.median reads);
          Stats.Table.cell_float (Stats.Summary.percentile reads 99.0);
          Stats.Table.cell_bool
            (List.for_all (fun s -> s.Exp_common.regular) summaries);
        ])
    [ 200; 80; 40; 20; 10 ];
  Exp_common.print_table table;
  Exp_common.note
    "Measured shape (stronger than we first expected): contention alone";
  Exp_common.note
    "does NOT erode the fast path -- by the time a tuple is a candidate,";
  Exp_common.note
    "its pre-write already reached a quorum, so b+1 vouchers are almost";
  Exp_common.note
    "always in the first round-1 quorum.  The 2-round worst case needs";
  Exp_common.note
    "Byzantine interference (see E2's byz rows), exactly the adversary";
  Exp_common.note "the paper's bound is about.  Regularity holds throughout."

let run () =
  Exp_common.section "E7: latency distributions per delay model";
  let table =
    Stats.Table.create
      ~headers:
        [
          "protocol"; "delay model"; "reads"; "rd p50"; "rd p99"; "rd max";
          "wr p50"; "rd rnds mean";
        ]
  in
  List.iter
    (fun contender ->
      List.iter
        (fun (mname, delay) ->
          let summaries =
            List.map
              (fun seed ->
                let rng = Sim.Prng.create ~seed in
                let schedule =
                  Core.Schedule.merge
                    (Workload.Generate.sequential ~writes:3 ~readers:2 ~gap:100)
                    (Workload.Generate.poisson_reads ~rng ~readers:2
                       ~mean_gap:40.0 ~horizon:1200)
                in
                Exp_common.run ~seed ~delay ~crashes:[] ~use_byz:false contender
                  schedule)
              [ 1; 2; 3; 4; 5 ]
          in
          let reads =
            List.fold_left
              (fun acc s -> Stats.Summary.merge acc s.Exp_common.read_latency)
              (Stats.Summary.create ()) summaries
          in
          let writes =
            List.fold_left
              (fun acc s -> Stats.Summary.merge acc s.Exp_common.write_latency)
              (Stats.Summary.create ()) summaries
          in
          let rounds_mean =
            List.fold_left (fun acc s -> acc +. s.Exp_common.read_rounds_mean)
              0.0 summaries
            /. float_of_int (List.length summaries)
          in
          Stats.Table.add_row table
            [
              contender.Exp_common.label;
              mname;
              Stats.Table.cell_int (Stats.Summary.count reads);
              Stats.Table.cell_float (Stats.Summary.median reads);
              Stats.Table.cell_float (Stats.Summary.percentile reads 99.0);
              Stats.Table.cell_float (Stats.Summary.max reads);
              Stats.Table.cell_float (Stats.Summary.median writes);
              Stats.Table.cell_float rounds_mean;
            ])
        models;
      Stats.Table.add_separator table)
    contenders;
  Exp_common.print_table table;
  contention_sweep ();
  Exp_common.note "";
  Exp_common.note
    "Expected shape: 1-round protocols (ABD, authenticated) cluster around";
  Exp_common.note
    "one straggler-bounded round trip; the 2-round safe/regular writes cost";
  Exp_common.note
    "about twice that; safe/regular READS mostly ride the round-1 fast path";
  Exp_common.note
    "when uncontended, so their read p50 tracks the 1-round protocols with a";
  Exp_common.note "p99 no worse than 2 round trips."
