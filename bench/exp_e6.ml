(* E6 -- ablation of the safe reader's defensive mechanisms (S4 intuition):
   disable one knob at a time and measure what breaks under the targeted
   adversary.  Every knob is load-bearing:

   - vouchers < b+1: Byzantine forgeries get validated -> safety violations;
   - no elimination: a forged high candidate is never removed and never
     safe -> reads block forever (wait-freedom lost);
   - no conflict detection: round 1 accepts defamed quorums; termination
     of round 2 then rests on Lemma 3's case (2.b) machinery, which this
     knob implements -- we measure behaviour under the defaming adversary. *)

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

let schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "v1"));
    (100, Core.Schedule.Read { reader = 1 });
    (200, Core.Schedule.Write (Core.Value.v "v2"));
    (300, Core.Schedule.Read { reader = 1 });
    (320, Core.Schedule.Read { reader = 2 });
    (400, Core.Schedule.Write (Core.Value.v "v3"));
    (500, Core.Schedule.Read { reader = 1 });
  ]

let variants :
    (string * (module Core.Protocol_intf.S with type msg = Core.Messages.t)) list =
  [
    ("full (Fig 4)", (module Core.Proto_safe));
    ("no conflict detection", (module Core.Proto_safe_ablated.No_conflict_detection));
    ("no elimination rule", (module Core.Proto_safe_ablated.No_elimination));
    ("1 voucher (< b+1)", (module Core.Proto_safe_ablated.Single_voucher));
  ]

let attacks =
  [
    ("forge-high", Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:9);
    ("defame", Fault.Strategies.defame ~targets:[ 1; 3; 4 ] ~boost:10);
    ("simulate-write", Fault.Strategies.simulate_unwritten_write ~value:"ghost" ~ts:8);
  ]

let run () =
  Exp_common.section "E6: ablation of the safe reader's mechanisms";
  let table =
    Stats.Table.create
      ~headers:
        [
          "variant"; "attack"; "completed"; "stuck reads"; "rd rnds max";
          "safe?"; "violations";
        ]
  in
  List.iter
    (fun (vname, proto) ->
      List.iter
        (fun (aname, strat) ->
          let s =
            Exp_common.simulate proto ~cfg:Exp_common.core_cfg
              ~byz:[ (2, strat) ] ~seed:77 ~delay ~crashes:[] schedule
          in
          Stats.Table.add_row table
            [
              vname;
              aname;
              Printf.sprintf "%d/%d" s.completed s.total;
              Stats.Table.cell_int (s.total - s.completed);
              Stats.Table.cell_int s.read_rounds_max;
              Stats.Table.cell_bool s.safe;
              Stats.Table.cell_int s.safety_violations;
            ])
        attacks;
      Stats.Table.add_separator table)
    variants;
  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: the full reader completes everything safely; dropping";
  Exp_common.note
    "the elimination rule wedges reads against forged candidates (stuck";
  Exp_common.note
    "reads > 0); weakening the voucher threshold lets forgeries through";
  Exp_common.note
    "(violations > 0); conflict detection costs nothing here but is what";
  Exp_common.note "Lemma 3's worst-case termination argument leans on."
