(* Bechamel micro-benchmarks: throughput of the pure state machines and
   of the supporting infrastructure (B1 in DESIGN.md).  One Test.make per
   hot path; estimates are OLS ns/run on the monotonic clock. *)

open Bechamel
open Toolkit

let cfg_core = Quorum.Config.optimal ~t:1 ~b:1

(* -- fixtures ----------------------------------------------------------- *)

let safe_object_with_write () =
  let o = Core.Safe_object.init ~index:1 in
  let tsval = Core.Tsval.make ~ts:1 ~v:(Core.Value.v "payload") in
  let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
  let o, _ =
    Core.Safe_object.handle o ~src:Sim.Proc_id.Writer
      (Core.Messages.W { ts = 1; pw = tsval; w })
  in
  o

let bench_safe_object =
  Test.make ~name:"safe_object.handle READ1"
    (Staged.stage (fun () ->
         let o = safe_object_with_write () in
         Core.Safe_object.handle o ~src:(Sim.Proc_id.Reader 1)
           (Core.Messages.Read1 { tsr = 1; from_ts = 0 })))

let bench_regular_object =
  Test.make ~name:"regular_object.handle W + READ1"
    (Staged.stage (fun () ->
         let o = Core.Regular_object.init ~index:1 in
         let tsval = Core.Tsval.make ~ts:1 ~v:(Core.Value.v "payload") in
         let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
         let o, _ =
           Core.Regular_object.handle o ~src:Sim.Proc_id.Writer
             (Core.Messages.W { ts = 1; pw = tsval; w })
         in
         Core.Regular_object.handle o ~src:(Sim.Proc_id.Reader 1)
           (Core.Messages.Read1 { tsr = 1; from_ts = 0 })))

let bench_writer_round =
  Test.make ~name:"writer full 2-round write"
    (Staged.stage (fun () ->
         let w = Core.Writer.init ~cfg:cfg_core in
         match Core.Writer.start_write w (Core.Value.v "v") with
         | Error _ -> assert false
         | Ok (w, _) ->
             let ack ts = Core.Messages.Pw_ack { ts; tsr = Core.Ints.Map.empty } in
             let w, _ = Core.Writer.on_message w ~obj:1 (ack 1) in
             let w, _ = Core.Writer.on_message w ~obj:2 (ack 1) in
             let w, e = Core.Writer.on_message w ~obj:3 (ack 1) in
             (match e with
             | Core.Writer.Broadcast _ ->
                 let wa = Core.Messages.W_ack { ts = 1 } in
                 let w, _ = Core.Writer.on_message w ~obj:1 wa in
                 let w, _ = Core.Writer.on_message w ~obj:2 wa in
                 ignore (Core.Writer.on_message w ~obj:3 wa)
             | _ -> assert false)))

let bench_safe_read_fast_path =
  Test.make ~name:"safe_reader full fast read (3 acks)"
    (Staged.stage (fun () ->
         let r = Core.Safe_reader.init ~cfg:cfg_core ~j:1 () in
         match Core.Safe_reader.start_read r with
         | Error _ -> assert false
         | Ok (r, Core.Messages.Read1 { tsr; _ }) ->
             let tsval = Core.Tsval.make ~ts:1 ~v:(Core.Value.v "v") in
             let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
             let ack = Core.Messages.Read1_ack { tsr; pw = tsval; w } in
             let r, _ = Core.Safe_reader.on_message r ~obj:1 ack in
             let r, _ = Core.Safe_reader.on_message r ~obj:2 ack in
             ignore (Core.Safe_reader.on_message r ~obj:3 ack)
         | Ok _ -> assert false))

let bench_end_to_end_scenario =
  let module Sc = Core.Scenario.Make (Core.Proto_safe) in
  Test.make ~name:"scenario: 1 write + 2 reads end-to-end"
    (Staged.stage (fun () ->
         ignore
           (Sc.run ~cfg:cfg_core ~seed:1 ~delay:(Sim.Delay.constant 5)
              [
                (0, Core.Schedule.Write (Core.Value.v "v1"));
                (50, Core.Schedule.Read { reader = 1 });
                (100, Core.Schedule.Read { reader = 1 });
              ])))

let bench_checker =
  let history =
    let r = Histories.Recorder.create () in
    for k = 1 to 50 do
      let h = Histories.Recorder.invoke_write r ~time:(k * 10) (Printf.sprintf "v%d" k) in
      Histories.Recorder.respond_write r h ~time:((k * 10) + 5);
      let rd = Histories.Recorder.invoke_read r ~time:((k * 10) + 6) ~reader:1 in
      Histories.Recorder.respond_read r rd ~time:((k * 10) + 9)
        (Histories.Op.Value (Printf.sprintf "v%d" k))
    done;
    Histories.Recorder.ops r
  in
  Test.make ~name:"checks: regularity of 100-op history"
    (Staged.stage (fun () ->
         ignore (Histories.Checks.check_regularity ~equal:String.equal history)))

(* The shape of a live single-register history (E15, E18): one write,
   then 20,000 reads of its value.  Both checks must stay linear in the
   reads when writes are few. *)
let bench_checker_reads =
  let history =
    let r = Histories.Recorder.create () in
    let w = Histories.Recorder.invoke_write r ~time:0 "v1" in
    Histories.Recorder.respond_write r w ~time:1;
    for k = 1 to 20_000 do
      let rd = Histories.Recorder.invoke_read r ~time:(2 * k) ~reader:1 in
      Histories.Recorder.respond_read r rd ~time:((2 * k) + 1)
        (Histories.Op.Value "v1")
    done;
    Histories.Recorder.ops r
  in
  Test.make ~name:"checks: safety + regularity, 20k reads + 1 write"
    (Staged.stage (fun () ->
         ignore (Histories.Checks.check_safety ~equal:String.equal history);
         ignore (Histories.Checks.check_regularity ~equal:String.equal history)))

let bench_heap =
  let module H = Sim.Heap.Make (Int) in
  Test.make ~name:"heap: 256 inserts + drain"
    (Staged.stage (fun () ->
         let h = ref H.empty in
         for i = 0 to 255 do
           h := H.insert !h ((i * 7919) mod 997)
         done;
         let rec drain h = match H.pop h with None -> () | Some (_, h) -> drain h in
         drain !h))

let bench_prng =
  Test.make ~name:"prng: 1024 draws"
    (Staged.stage (fun () ->
         let g = Sim.Prng.create ~seed:1 in
         for _ = 1 to 1024 do
           ignore (Sim.Prng.int g ~bound:1000)
         done))

(* -- wire codec --------------------------------------------------------- *)

(* A READ1_ACK as the client sees it: key- and sender-tagged frame,
   write tuple with a populated reader-timestamp matrix. *)
let codec_fixture () =
  let codec = Net.Codec.messages in
  let row = Core.Ints.Map.add 2 5 (Core.Ints.Map.add 1 3 Core.Ints.Map.empty) in
  let tsrarray =
    List.fold_left
      (fun m obj -> Core.Tsr_matrix.set_row m ~obj row)
      Core.Tsr_matrix.empty [ 1; 2; 3; 4 ]
  in
  let ack ts =
    let tsval = Core.Tsval.make ~ts ~v:(Core.Value.v "payload") in
    let w = Core.Wtuple.make ~tsval ~tsrarray in
    Net.Codec.Msg_key
      {
        key = 0;
        sender = "r3";
        msg = Core.Messages.Read1_ack { tsr = 3; pw = tsval; w };
      }
  in
  (* encode_frame prepends the 4-byte length prefix that the Reader
     strips before decode_payload sees the bytes *)
  let payload frame =
    let s = Net.Codec.encode_frame codec frame in
    String.sub s 4 (String.length s - 4)
  in
  (codec, ack 7, payload (ack 7), payload (ack 8))

let bench_codec_encode =
  let codec, frame, _, _ = codec_fixture () in
  let out = Net.Codec.Out.create () in
  Test.make ~name:"codec: encode READ1_ACK (scratch reuse)"
    (Staged.stage (fun () ->
         Net.Codec.Out.clear out;
         Net.Codec.encode_frame_into codec out frame))

let bench_codec_decode_hot =
  let codec, _, payload, _ = codec_fixture () in
  Test.make ~name:"codec: decode READ1_ACK (interned)"
    (Staged.stage (fun () -> ignore (Net.Codec.decode_payload codec payload)))

let bench_codec_decode_cold =
  let codec, _, payload_a, payload_b = codec_fixture () in
  let flip = ref false in
  Test.make ~name:"codec: decode READ1_ACK (intern miss)"
    (Staged.stage (fun () ->
         flip := not !flip;
         ignore
           (Net.Codec.decode_payload codec
              (if !flip then payload_a else payload_b))))

(* -- regular-gc: the automaton steps every live read runs --------------- *)

(* S = 5 = 2t+2b+1 (t = b = 1), the uniform-rw fleet: five GC objects
   hold one completed write, and reader 1 has already returned one read,
   so its cache asks for history suffixes as regular-gc readers do.
   [reader] is that idle reader, [acks] are objects 1-4's replies to its
   next READ1 (S−t = 4 of them, as a quorum-sized round collects), and
   [obj] is object 1 just before handling that [read1]. *)
let regular_gc_start r =
  match Core.Regular_reader.start_read r with
  | Ok rm -> rm
  | Error e -> failwith e

let regular_gc_feed r acks =
  List.fold_left
    (fun r (obj, ack) -> fst (Core.Regular_reader.on_message r ~obj ack))
    r acks

let regular_gc_fixture () =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 in
  let objs =
    Array.init 5 (fun i -> Core.Regular_object_gc.init ~index:(i + 1) ~readers:1)
  in
  let deliver ~src ~upto m =
    List.init upto (fun i ->
        let o, reply = Core.Regular_object_gc.handle objs.(i) ~src m in
        objs.(i) <- o;
        (i + 1, Option.get reply))
  in
  let rec write w m =
    let step (w, ev) (obj, ack) =
      match ev with
      | Core.Writer.Nothing -> Core.Writer.on_message w ~obj ack
      | ev -> (w, ev)
    in
    match
      List.fold_left step (w, Core.Writer.Nothing)
        (deliver ~src:Sim.Proc_id.Writer ~upto:5 m)
    with
    | w, Core.Writer.Broadcast m -> write w m
    | _, _ -> ()
  in
  (match Core.Writer.start_write (Core.Writer.init ~cfg) (Core.Value.v "payload") with
  | Ok (w, m) -> write w m
  | Error e -> failwith e);
  let src = Sim.Proc_id.Reader 1 in
  let read r =
    let r, m = regular_gc_start r in
    regular_gc_feed r (deliver ~src ~upto:4 m)
  in
  let reader = read (Core.Regular_reader.init ~cfg ~j:1 ~cached:true ()) in
  let obj = objs.(0) in
  let r, read1 = regular_gc_start reader in
  let acks = deliver ~src ~upto:4 read1 in
  if not (Core.Regular_reader.is_idle (regular_gc_feed r acks)) then
    failwith "micro: the read did not decide on round 1";
  (reader, acks, obj, read1)

let bench_regular_gc_read =
  let reader, acks, _, _ = regular_gc_fixture () in
  Test.make ~name:"regular_reader: round-1 decision, 4 history acks (S=5, cached)"
    (Staged.stage (fun () ->
         let r, _ = regular_gc_start reader in
         regular_gc_feed r acks))

let bench_regular_gc_object =
  let _, _, obj, read1 = regular_gc_fixture () in
  Test.make ~name:"regular_object_gc.handle READ1 (suffix reply)"
    (Staged.stage (fun () ->
         Core.Regular_object_gc.handle obj ~src:(Sim.Proc_id.Reader 1) read1))

(* The next READ1 of the same reader with the same cache: its floor
   stays where the first one put it, so the object neither records it
   nor prunes. *)
let bench_regular_gc_object_same_floor =
  let _, _, obj, read1 = regular_gc_fixture () in
  let src = Sim.Proc_id.Reader 1 in
  let obj, _ = Core.Regular_object_gc.handle obj ~src read1 in
  let again =
    match read1 with
    | Core.Messages.Read1 { tsr; from_ts } ->
        Core.Messages.Read1 { tsr = tsr + 2; from_ts }
    | m -> m
  in
  Test.make ~name:"regular_object_gc.handle READ1 (floor unchanged)"
    (Staged.stage (fun () -> Core.Regular_object_gc.handle obj ~src again))

(* What every warm-up read of the benchmark is: a fresh reader on a
   fresh key, answered by four objects that hold only the initial
   history. *)
let bench_regular_gc_cold_read =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 in
  let reader = Core.Regular_reader.init ~cfg ~j:1 ~cached:true () in
  let _, read1 = regular_gc_start reader in
  let acks =
    List.init 4 (fun i ->
        let o = Core.Regular_object_gc.init ~index:(i + 1) ~readers:1 in
        let _, reply =
          Core.Regular_object_gc.handle o ~src:(Sim.Proc_id.Reader 1) read1
        in
        (i + 1, Option.get reply))
  in
  Test.make
    ~name:"regular_reader: cold round-1 decision, 4 acks of the initial history"
    (Staged.stage (fun () ->
         let r, _ = regular_gc_start reader in
         regular_gc_feed r acks))

(* A READ1_ACK_H frame as the regular-gc client receives it: the
   one-entry history suffix of the fixture's cached read. *)
let history_ack_fixture () =
  let _, acks, _, _ = regular_gc_fixture () in
  let frame =
    Net.Codec.Msg_key { key = 0; sender = "r1"; msg = snd (List.hd acks) }
  in
  let s = Net.Codec.encode_frame Net.Codec.messages frame in
  (frame, String.sub s 4 (String.length s - 4))

let bench_codec_encode_history =
  let frame, _ = history_ack_fixture () in
  let out = Net.Codec.Out.create () in
  Test.make ~name:"codec: encode READ1_ACK_H, 1-entry history (scratch reuse)"
    (Staged.stage (fun () ->
         Net.Codec.Out.clear out;
         Net.Codec.encode_frame_into Net.Codec.messages out frame))

let bench_codec_decode_history =
  let _, payload = history_ack_fixture () in
  Test.make ~name:"codec: decode READ1_ACK_H, 1-entry history (interned)"
    (Staged.stage (fun () ->
         ignore (Net.Codec.decode_payload Net.Codec.messages payload)))

(* -- read-coalescing batch ----------------------------------------------- *)

(* The hot-key coalescing lifecycle: one lead opens a batch, joiners
   attach while the round-1 broadcast is being assembled, the pump
   closes it at flush, and the lead's completion fans the result out.
   Per-join and per-batch cost must stay far below one quorum RPC for
   coalescing to be a pure win — this pins both, and the allocation
   rate (one cons per join). *)
let bench_coalesce_batch =
  Test.make ~name:"coalesce: 63 joins + close + fan-out"
    (Staged.stage (fun () ->
         let b = Core.Coalesce.create ~cap:64 in
         while Core.Coalesce.can_join b do
           Core.Coalesce.join b (Core.Coalesce.width b)
         done;
         Core.Coalesce.close b;
         let acc = ref 0 in
         Core.Coalesce.iter_joiners (fun op -> acc := !acc + op) b;
         !acc))

let bench_coalesce_join =
  Test.make ~name:"coalesce: join (1 element)"
    (Staged.stage (fun () ->
         let b = Core.Coalesce.create ~cap:2 in
         Core.Coalesce.join b 1;
         Core.Coalesce.close b;
         Core.Coalesce.width b))

(* Bechamel's [Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor-word count OCaml 5 brings up to date only at a minor collection,
   so a run that allocates less than the minor heap reads as 0 words.
   [Gc.minor_words] counts the current domain's allocation exactly. *)
module Minor_words = struct
  type witness = unit

  let load () = ()

  let unload () = ()

  let make () = ()

  let get () = Gc.minor_words ()

  let label () = "minor-words"

  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let tests =
  [
    bench_prng;
    bench_heap;
    bench_coalesce_batch;
    bench_coalesce_join;
    bench_safe_object;
    bench_regular_object;
    bench_writer_round;
    bench_safe_read_fast_path;
    bench_regular_gc_read;
    bench_regular_gc_cold_read;
    bench_regular_gc_object;
    bench_regular_gc_object_same_floor;
    bench_end_to_end_scenario;
    bench_checker;
    bench_checker_reads;
    bench_codec_encode;
    bench_codec_decode_hot;
    bench_codec_decode_cold;
    bench_codec_encode_history;
    bench_codec_decode_history;
  ]

let run () =
  Exp_common.section "Micro-benchmarks (bechamel, per run)";
  let grouped = Test.make_grouped ~name:"robust_read" tests in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all benchmark_cfg
      [ Instance.monotonic_clock; minor_words ]
      grouped
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> nan)
    | None -> nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols minor_words raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) times []
    |> List.sort_uniq compare
  in
  let table =
    Stats.Table.create ~headers:[ "benchmark"; "time/run"; "minor words/run" ]
  in
  List.iter
    (fun name ->
      let ns = estimate times name in
      let time_cell =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      let words = estimate allocs name in
      let alloc_cell =
        if Float.is_nan words then "n/a" else Printf.sprintf "%.0f" words
      in
      Stats.Table.add_row table [ name; time_cell; alloc_cell ])
    rows;
  Exp_common.print_table table
