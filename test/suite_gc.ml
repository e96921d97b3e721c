(* Tests for the garbage-collected regular objects (the storage-
   exhaustion extension the paper calls for in §1). *)

module Gc2 = Core.Proto_regular_gc.Make (struct
  let readers = 2
end)

module Sc = Core.Scenario.Make (Gc2)

let equal = String.equal

let uniform = Sim.Delay.uniform ~lo:1 ~hi:10

(* Drive a GC object directly: writes then reads with given from_ts. *)
let write_obj o ~ts v =
  let tsval = Core.Tsval.make ~ts ~v:(Core.Value.v v) in
  let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
  let o, _ =
    Core.Regular_object_gc.handle o ~src:Sim.Proc_id.Writer
      (Core.Messages.W { ts; pw = tsval; w })
  in
  o

let read_obj o ~reader ~tsr ~from_ts =
  Core.Regular_object_gc.handle o ~src:(Sim.Proc_id.Reader reader)
    (Core.Messages.Read1 { tsr; from_ts })

let test_no_pruning_until_all_readers_seen () =
  let o = Core.Regular_object_gc.init ~index:1 ~readers:2 in
  let o = List.fold_left (fun o k -> write_obj o ~ts:k (string_of_int k)) o [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "full history retained" 6
    (Core.Regular_object_gc.history_length o);
  (* one of two readers reports a high floor: still no pruning *)
  let o, _ = read_obj o ~reader:1 ~tsr:1 ~from_ts:4 in
  Alcotest.(check int) "still retained (reader 2 unseen)" 6
    (Core.Regular_object_gc.history_length o);
  Alcotest.(check int) "floor recorded" 4 (Core.Regular_object_gc.floor o ~reader:1)

let test_pruning_at_min_floor () =
  let o = Core.Regular_object_gc.init ~index:1 ~readers:2 in
  let o = List.fold_left (fun o k -> write_obj o ~ts:k (string_of_int k)) o [ 1; 2; 3; 4; 5 ] in
  let o, _ = read_obj o ~reader:1 ~tsr:1 ~from_ts:4 in
  let o, _ = read_obj o ~reader:2 ~tsr:1 ~from_ts:3 in
  (* min floor is 3: entries 0,1,2 dropped; 3,4,5 kept *)
  Alcotest.(check int) "pruned to min floor" 3
    (Core.Regular_object_gc.history_length o);
  Alcotest.(check bool) "entry 2 gone" true
    (Core.History_store.length
       (match read_obj o ~reader:1 ~tsr:2 ~from_ts:0 with
       | _, Some (Core.Messages.Read1_ack_h { history; _ }) -> history
       | _ -> Alcotest.fail "expected ack")
    = 3)

let test_latest_complete_never_pruned () =
  (* Floors above the newest write must not drop the latest complete
     entry. *)
  let o = Core.Regular_object_gc.init ~index:1 ~readers:1 in
  let o = write_obj o ~ts:1 "a" in
  let o, _ = read_obj o ~reader:1 ~tsr:1 ~from_ts:1 in
  let o, _ = read_obj o ~reader:1 ~tsr:2 ~from_ts:9 in
  Alcotest.(check bool) "latest complete entry survives" true
    (Core.Regular_object_gc.history_length o >= 1)

let test_end_to_end_regular_with_gc () =
  (* Full runs: GC objects + cached readers stay regular under byz. *)
  let schedule =
    List.concat
      (List.init 12 (fun i ->
           [
             (i * 100, Core.Schedule.Write (Workload.Generate.payload (i + 1)));
             ((i * 100) + 40, Core.Schedule.Read { reader = 1 });
             ((i * 100) + 60, Core.Schedule.Read { reader = 2 });
           ]))
  in
  let rep =
    Sc.run ~cfg:(Quorum.Config.optimal ~t:1 ~b:1) ~seed:19 ~delay:uniform
      ~faults:
        {
          Sc.crashes = [];
          byzantine =
            [ (2, Fault.Strategies.forge_history ~value:"evil" ~ts_boost:5) ];
        }
      schedule
  in
  Alcotest.(check int) "all complete" (List.length schedule)
    (List.length rep.outcomes);
  Alcotest.(check bool) "regular" true
    (Histories.Checks.is_regular ~equal rep.history)

let test_gc_reduces_traffic_vs_plain () =
  (* With per-object pruning AND suffix replies, total reader traffic of
     the GC variant matches the optimized protocol (the GC cannot do
     worse: it only removes entries the cached readers never ask for). *)
  let schedule =
    List.concat
      (List.init 15 (fun i ->
           [
             (i * 100, Core.Schedule.Write (Workload.Generate.payload (i + 1)));
             ((i * 100) + 40, Core.Schedule.Read { reader = 1 });
             ((i * 100) + 60, Core.Schedule.Read { reader = 2 });
           ]))
  in
  let module Plain = Core.Scenario.Make (Core.Proto_regular.Plain) in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let rep_gc = Sc.run ~cfg ~seed:20 ~delay:uniform ~faults:Sc.no_faults schedule in
  let rep_plain =
    Plain.run ~cfg ~seed:20 ~delay:uniform ~faults:Plain.no_faults schedule
  in
  Alcotest.(check bool)
    (Printf.sprintf "gc traffic (%d) < plain traffic (%d)"
       rep_gc.words_to_readers rep_plain.words_to_readers)
    true
    (rep_gc.words_to_readers < rep_plain.words_to_readers)

let test_bounded_history_direct_drive () =
  (* Alternate writes and dual-reader reads: plain object history grows
     linearly; GC object history stays bounded. *)
  let gc = ref (Core.Regular_object_gc.init ~index:1 ~readers:2) in
  let plain = ref (Core.Regular_object.init ~index:1) in
  let lengths = ref [] in
  for k = 1 to 50 do
    gc := write_obj !gc ~ts:k (string_of_int k);
    (let tsval = Core.Tsval.make ~ts:k ~v:(Core.Value.v (string_of_int k)) in
     let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
     let p, _ =
       Core.Regular_object.handle !plain ~src:Sim.Proc_id.Writer
         (Core.Messages.W { ts = k; pw = tsval; w })
     in
     plain := p);
    (* both readers read with caches trailing by one write *)
    let from_ts = max 0 (k - 1) in
    let g, _ = read_obj !gc ~reader:1 ~tsr:(2 * k) ~from_ts in
    let g, _ = read_obj g ~reader:2 ~tsr:(2 * k) ~from_ts in
    gc := g;
    lengths := Core.Regular_object_gc.history_length !gc :: !lengths
  done;
  let max_gc = List.fold_left max 0 !lengths in
  Alcotest.(check bool)
    (Printf.sprintf "gc history bounded (max %d)" max_gc)
    true (max_gc <= 3);
  Alcotest.(check int) "plain history grew linearly" 51
    (Core.History_store.length (Core.Regular_object.history !plain))

let test_floors_advance_without_read2 () =
  (* A fast read sends Read1 only.  Its from_ts is the timestamp the
     previous read returned, and that alone must keep the floor moving:
     no Read2 is ever delivered here. *)
  let o = ref (Core.Regular_object_gc.init ~index:1 ~readers:1) in
  let handle ~src m =
    let o', reply = Core.Regular_object_gc.handle !o ~src m in
    o := o';
    reply
  in
  let returned = ref 0 in
  let max_len = ref 0 in
  for k = 1 to 50 do
    let tsval = Core.Tsval.make ~ts:k ~v:(Core.Value.v (string_of_int k)) in
    let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
    let write m = ignore (handle ~src:Sim.Proc_id.Writer m) in
    write (Core.Messages.Pw { ts = k; pw = tsval; w });
    max_len := max !max_len (Core.Regular_object_gc.history_length !o);
    write (Core.Messages.W { ts = k; pw = tsval; w });
    (* the reader's counter moves past the Read2 it did not send *)
    (match
       handle ~src:(Sim.Proc_id.Reader 1)
         (Core.Messages.Read1 { tsr = (2 * k) - 1; from_ts = !returned })
     with
    | Some (Core.Messages.Read1_ack_h { history; _ }) ->
        (* the read returns the newest complete entry it was shown *)
        returned :=
          List.fold_left
            (fun acc (ts, e) ->
              if Option.is_some e.Core.History_store.w then max acc ts else acc)
            !returned
            (Core.History_store.bindings history)
    | _ -> Alcotest.fail "expected a Read1 ack");
    Alcotest.(check int) "read returned the latest write" k !returned;
    max_len := max !max_len (Core.Regular_object_gc.history_length !o)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "history bounded without Read2 (max %d)" !max_len)
    true (!max_len <= 3);
  Alcotest.(check int) "floor follows the Read1 from_ts" 49
    (Core.Regular_object_gc.floor !o ~reader:1)

let suite =
  ( "regular-gc",
    [
      Alcotest.test_case "no pruning until all readers seen" `Quick
        test_no_pruning_until_all_readers_seen;
      Alcotest.test_case "pruning at min floor" `Quick test_pruning_at_min_floor;
      Alcotest.test_case "latest complete never pruned" `Quick
        test_latest_complete_never_pruned;
      Alcotest.test_case "end-to-end regular with gc" `Quick
        test_end_to_end_regular_with_gc;
      Alcotest.test_case "gc reduces traffic" `Quick test_gc_reduces_traffic_vs_plain;
      Alcotest.test_case "bounded history (direct drive)" `Quick
        test_bounded_history_direct_drive;
      Alcotest.test_case "floors advance on Read1 alone" `Quick
        test_floors_advance_without_read2;
    ] )
