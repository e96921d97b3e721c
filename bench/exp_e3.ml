(* E3 -- the regular storage (Figures 5-6) and the S5.1 optimization.

   Round census mirrors E2; the second table measures reply size (in
   abstract words delivered to readers) as the write history grows --
   the full-history protocol grows linearly, the cached/suffix variant
   stays flat. *)

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

let census () =
  let table =
    Stats.Table.create
      ~headers:
        [
          "variant"; "t"; "b"; "faults"; "ops"; "wr rnds"; "rd rnds (max)";
          "fast reads"; "regular?";
        ]
  in
  List.iter
    (fun (t, b) ->
      let cfg = Quorum.Config.optimal ~t ~b in
      List.iter
        (fun (label, proto) ->
          List.iter
            (fun (fname, use_byz) ->
              let schedule =
                Workload.Generate.sequential ~writes:5 ~readers:2 ~gap:60
              in
              let s =
                Exp_common.simulate proto ~cfg
                  ~byz:
                    (if use_byz then
                       List.init b (fun i ->
                           ( i + 1,
                             Fault.Strategies.forge_history ~value:"evil"
                               ~ts_boost:9 ))
                     else [])
                  ~seed:(t + (7 * b)) ~delay ~crashes:[] schedule
              in
              Stats.Table.add_row table
                [
                  label;
                  Stats.Table.cell_int t;
                  Stats.Table.cell_int b;
                  fname;
                  Printf.sprintf "%d/%d" s.completed s.total;
                  Stats.Table.cell_int s.write_rounds_max;
                  Stats.Table.cell_int s.read_rounds_max;
                  Printf.sprintf "%.0f%%" (100.0 *. s.fast_read_fraction);
                  Stats.Table.cell_bool s.regular;
                ])
            [ ("none", false); ("byz b", true) ])
        [
          ( "regular",
            (module Core.Proto_regular.Plain
            : Core.Protocol_intf.S with type msg = Core.Messages.t) );
          ("regular-opt", (module Core.Proto_regular.Optimized));
        ];
      Stats.Table.add_separator table)
    [ (1, 1); (2, 2) ];
  Exp_common.print_table table

let reply_growth () =
  Exp_common.note "";
  Exp_common.note
    "Reply-size growth with history length (words delivered to readers):";
  let table =
    Stats.Table.create
      ~headers:
        [
          "writes"; "reads"; "regular words"; "opt words"; "ratio";
          "regular w/read"; "opt w/read";
        ]
  in
  List.iter
    (fun writes ->
      let schedule =
        List.concat
          (List.init writes (fun i ->
               [
                 (i * 100, Core.Schedule.Write (Workload.Generate.payload (i + 1)));
                 ((i * 100) + 50, Core.Schedule.Read { reader = 1 });
               ]))
      in
      let reads = writes in
      let run proto =
        (Exp_common.simulate proto ~cfg:Exp_common.core_cfg ~byz:[] ~seed:9
           ~delay ~crashes:[] schedule)
          .words_to_readers
      in
      let plain =
        run
          (module Core.Proto_regular.Plain
          : Core.Protocol_intf.S with type msg = Core.Messages.t)
      in
      let opt = run (module Core.Proto_regular.Optimized) in
      Stats.Table.add_row table
        [
          Stats.Table.cell_int writes;
          Stats.Table.cell_int reads;
          Stats.Table.cell_int plain;
          Stats.Table.cell_int opt;
          Stats.Table.cell_float (float_of_int plain /. float_of_int (max 1 opt));
          Stats.Table.cell_float (float_of_int plain /. float_of_int reads);
          Stats.Table.cell_float (float_of_int opt /. float_of_int reads);
        ])
    [ 2; 5; 10; 20; 40; 80 ];
  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: the unoptimized column grows quadratically in total";
  Exp_common.note
    "(linearly per read); the S5.1 column stays near-constant per read."

let run () =
  Exp_common.section "E3: regular storage (Figures 5-6) + S5.1 optimization";
  census ();
  reply_growth ()
