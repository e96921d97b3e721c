(* E4 -- the cross-protocol comparison behind the paper's S1 positioning:
   rounds, resilience and robustness of every implementation side by
   side, under crash-only and Byzantine fault mixes. *)

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

let schedule seed =
  let rng = Sim.Prng.create ~seed in
  Core.Schedule.merge
    (Workload.Generate.sequential ~writes:4 ~readers:2 ~gap:80)
    (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:2 ~reads_per_reader:4
       ~horizon:1100)

let crash_plan (c : Exp_common.contender) =
  (* crash one object, within every contender's t >= 1 budget *)
  let cfg = Exp_common.config c in
  if cfg.Quorum.Config.t >= 1 then [ (Sim.Proc_id.Obj cfg.Quorum.Config.s, 120) ]
  else []

let run () =
  Exp_common.section "E4: cross-protocol comparison (paper S1 positioning)";
  let table =
    Stats.Table.create
      ~headers:
        [
          "protocol"; "S"; "t"; "b"; "semantics"; "wr rnds"; "rd rnds max";
          "rd rnds mean"; "crash: safe?"; "byz: safe?"; "byz: violations";
        ]
  in
  List.iter
    (fun contender ->
      let cfg = Exp_common.config contender in
      let crash =
        Exp_common.run ~seed:41 ~delay ~crashes:(crash_plan contender)
          ~use_byz:false contender (schedule 41)
      in
      let byz =
        Exp_common.run ~seed:42 ~delay ~crashes:[] ~use_byz:true contender
          (schedule 42)
      in
      Stats.Table.add_row table
        [
          contender.Exp_common.label;
          Stats.Table.cell_int cfg.Quorum.Config.s;
          Stats.Table.cell_int cfg.Quorum.Config.t;
          Stats.Table.cell_int cfg.Quorum.Config.b;
          contender.Exp_common.semantics;
          Stats.Table.cell_int (max crash.write_rounds_max byz.write_rounds_max);
          Stats.Table.cell_int (max crash.read_rounds_max byz.read_rounds_max);
          Stats.Table.cell_float byz.read_rounds_mean;
          Stats.Table.cell_bool crash.safe;
          Stats.Table.cell_bool byz.safe;
          Stats.Table.cell_int byz.safety_violations;
        ])
    Exp_common.all_contenders;
  Exp_common.print_table table;
  (* The round gap, made visible: a Byzantine forger plus one slow honest
     object -- the non-modifying reader re-polls until the straggler
     breaks the tie; the Figure 4 reader stays within two rounds. *)
  Exp_common.note "";
  Exp_common.note
    "Straggler amplification (byz forger + one 30x-slow honest object):";
  let straggler_table =
    Stats.Table.create
      ~headers:[ "protocol"; "rd rounds max"; "rd latency max"; "safe?" ]
  in
  let slow =
    Sim.Delay.slow_process
      ~slow:(Sim.Proc_id.Set.singleton (Sim.Proc_id.Obj 4))
      ~factor:30
      (Sim.Delay.uniform ~lo:1 ~hi:10)
  in
  let sched =
    [
      (0, Core.Schedule.Write (Core.Value.v "v1"));
      (150, Core.Schedule.Read { reader = 1 });
      (600, Core.Schedule.Read { reader = 1 });
    ]
  in
  List.iter
    (fun contender ->
      let s =
        Exp_common.run ~seed:33 ~delay:slow ~crashes:[] ~use_byz:true contender
          sched
      in
      Stats.Table.add_row straggler_table
        [
          contender.Exp_common.label;
          Stats.Table.cell_int s.read_rounds_max;
          (if Stats.Summary.count s.read_latency = 0 then "-"
           else Stats.Table.cell_float ~decimals:0 (Stats.Summary.max s.read_latency));
          Stats.Table.cell_bool s.safe;
        ])
    [ Exp_common.nonmod_contender; Exp_common.safe_contender;
      Exp_common.regular_contender ];
  Exp_common.print_table straggler_table;
  Exp_common.note
    "Expected shape: the paper's protocols and nonmod stay safe under b";
  Exp_common.note
    "Byzantine objects at S = 2t+b+1; nonmod pays for it with extra read";
  Exp_common.note
    "phases; ABD (designed for b = 0) and the naive fast strawman are broken;";
  Exp_common.note
    "the authenticated baseline is safe with 1-round operations, which is";
  Exp_common.note "why the paper insists on unauthenticated data."
