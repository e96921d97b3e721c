(* E10 -- storage exhaustion and garbage collection.

   The paper keeps full per-object histories for the regular storage and
   flags that this "might raise issues of storage exhaustion and needs
   careful garbage collection" (S1).  This experiment quantifies the
   problem and validates our reader-floor collector
   (Regular_object_gc): per-object history length as writes accumulate,
   for the plain Figure 5 object vs the GC variant, with two cached
   readers trailing the writer. *)

let write_gc o ~ts v =
  let tsval = Core.Tsval.make ~ts ~v:(Core.Value.v v) in
  let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
  fst
    (Core.Regular_object_gc.handle o ~src:Sim.Proc_id.Writer
       (Core.Messages.W { ts; pw = tsval; w }))

let write_plain o ~ts v =
  let tsval = Core.Tsval.make ~ts ~v:(Core.Value.v v) in
  let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
  fst
    (Core.Regular_object.handle o ~src:Sim.Proc_id.Writer
       (Core.Messages.W { ts; pw = tsval; w }))

let read_gc o ~reader ~tsr ~from_ts =
  fst
    (Core.Regular_object_gc.handle o ~src:(Sim.Proc_id.Reader reader)
       (Core.Messages.Read1 { tsr; from_ts }))

let run () =
  Exp_common.section "E10: history growth and garbage collection (S1 remark)";
  Exp_common.note
    "Per-object history entries after N writes, readers' caches trailing";
  Exp_common.note "by [lag] writes (two readers, floors drive the collector):";
  let table =
    Stats.Table.create
      ~headers:
        [ "writes"; "reader lag"; "plain entries"; "gc entries"; "bound" ]
  in
  List.iter
    (fun (writes, lag) ->
      let gc = ref (Core.Regular_object_gc.init ~index:1 ~readers:2) in
      let plain = ref (Core.Regular_object.init ~index:1) in
      let max_gc = ref 0 in
      for k = 1 to writes do
        gc := write_gc !gc ~ts:k (string_of_int k);
        plain := write_plain !plain ~ts:k (string_of_int k);
        let from_ts = max 0 (k - lag) in
        gc := read_gc !gc ~reader:1 ~tsr:(2 * k) ~from_ts;
        gc := read_gc !gc ~reader:2 ~tsr:(2 * k) ~from_ts;
        max_gc := max !max_gc (Core.Regular_object_gc.history_length !gc)
      done;
      Stats.Table.add_row table
        [
          Stats.Table.cell_int writes;
          Stats.Table.cell_int lag;
          Stats.Table.cell_int
            (Core.History_store.length (Core.Regular_object.history !plain));
          Stats.Table.cell_int (Core.Regular_object_gc.history_length !gc);
          Printf.sprintf "max %d" !max_gc;
        ])
    [ (10, 1); (100, 1); (1000, 1); (1000, 5); (1000, 20); (1000, 100) ];
  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: plain objects retain one entry per write forever";
  Exp_common.note
    "(linear growth -- the exhaustion the paper warns about); GC objects";
  Exp_common.note
    "retain O(reader lag) entries regardless of the total write count.";

  (* End-to-end sanity: the GC variant's runs remain regular. *)
  let module Gc2 = Core.Proto_regular_gc.Make (struct
    let readers = 2
  end) in
  let module Sc = Core.Scenario.Make (Gc2) in
  let schedule =
    List.concat
      (List.init 25 (fun i ->
           [
             (i * 100, Core.Schedule.Write (Workload.Generate.payload (i + 1)));
             ((i * 100) + 40, Core.Schedule.Read { reader = 1 });
             ((i * 100) + 60, Core.Schedule.Read { reader = 2 });
           ]))
  in
  let rep =
    Sc.run
      ~cfg:(Quorum.Config.optimal ~t:1 ~b:1)
      ~seed:77
      ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
      ~faults:
        [
          Sc.Byzantine
            {
              obj = 2;
              factory = Fault.Strategies.forge_history ~value:"evil" ~ts_boost:5;
            };
        ]
      schedule
  in
  Exp_common.note "";
  Exp_common.note
    "End-to-end with GC objects + one Byzantine forger: %d/%d ops, regular: %b"
    (List.length (Histories.Op.completed rep.history))
    (List.length schedule)
    (Histories.Checks.is_regular ~equal:String.equal rep.history)
