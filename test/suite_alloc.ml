(* Allocation budgets of a live read's hot steps.  [Gc.minor_words]
   counts the current domain's allocation exactly, so these budgets hold
   on any host.  Every frame and message is built before the measured
   call, and each call runs once unmeasured first, so one-time set-up
   (the codec's intern slot, a scratch buffer's first growth) is not
   counted.

   The fixture is bench/micro.ml's: S = 5 = 2t+2b+1 (t = b = 1), five
   regular-gc objects holding one completed write, and reader 1 after
   one read, so its next READ1 asks for history suffixes. *)

open Core

let cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1

let src = Sim.Proc_id.Reader 1

let start r =
  match Regular_reader.start_read r with Ok rm -> rm | Error e -> failwith e

let feed r acks =
  List.fold_left
    (fun r (obj, ack) -> fst (Regular_reader.on_message r ~obj ack))
    r acks

(* [reader]: reader 1 after one read; [acks]: objects 1-4's replies to
   its next READ1, [read1]; [obj]: object 1 just before that READ1. *)
let fixture () =
  let objs =
    Array.init 5 (fun i -> Regular_object_gc.init ~index:(i + 1) ~readers:1)
  in
  let deliver ~src ~upto m =
    List.init upto (fun i ->
        let o, reply = Regular_object_gc.handle objs.(i) ~src m in
        objs.(i) <- o;
        (i + 1, Option.get reply))
  in
  let rec write w m =
    let step (w, ev) (obj, ack) =
      match ev with
      | Writer.Nothing -> Writer.on_message w ~obj ack
      | ev -> (w, ev)
    in
    match
      List.fold_left step (w, Writer.Nothing)
        (deliver ~src:Sim.Proc_id.Writer ~upto:5 m)
    with
    | w, Writer.Broadcast m -> write w m
    | _, _ -> ()
  in
  (match Writer.start_write (Writer.init ~cfg) (Value.v "payload") with
  | Ok (w, m) -> write w m
  | Error e -> failwith e);
  let read r =
    let r, m = start r in
    feed r (deliver ~src ~upto:4 m)
  in
  let reader = read (Regular_reader.init ~cfg ~j:1 ~cached:true ()) in
  let obj = objs.(0) in
  let r, read1 = start reader in
  let acks = deliver ~src ~upto:4 read1 in
  if not (Regular_reader.is_idle (feed r acks)) then
    failwith "the read did not decide on round 1";
  (reader, acks, obj, read1)

(* Minor words one call of [f] allocates, averaged over ten calls after
   an unmeasured one. *)
let words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 10.

let at_most what budget used =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words, budget %.0f" what used budget)
    true (used <= budget)

let round1_decision () =
  let reader, acks, _, _ = fixture () in
  let decided = feed (fst (start reader)) acks in
  Alcotest.(check bool) "the read decides on round 1" true
    (Regular_reader.is_idle decided);
  at_most "round-1 decision (4 acks, S = 5, cached)" 300.
    (words (fun () -> feed (fst (start reader)) acks))

let encode_history_ack () =
  let _, acks, _, _ = fixture () in
  let frame =
    Net.Codec.Msg_key { key = 0; sender = "r1"; msg = snd (List.hd acks) }
  in
  let out = Net.Codec.Out.create () in
  let encode () =
    Net.Codec.Out.clear out;
    Net.Codec.encode_frame_into Net.Codec.messages out frame
  in
  encode ();
  Alcotest.(check string) "same bytes as encode_frame"
    (Net.Codec.encode_frame Net.Codec.messages frame)
    (Net.Codec.Out.contents out);
  at_most "READ1_ACK_H frame encode" 0. (words encode)

let gc_read_same_floor () =
  let _, _, obj, read1 = fixture () in
  let obj, _ = Regular_object_gc.handle obj ~src read1 in
  let again =
    match read1 with
    | Messages.Read1 { tsr; from_ts } ->
        Messages.Read1 { tsr = tsr + 2; from_ts }
    | m -> Alcotest.failf "expected a READ1, got %s" (Messages.info m)
  in
  let handled, reply = Regular_object_gc.handle obj ~src again in
  Alcotest.(check bool) "the READ1 is answered" true (Option.is_some reply);
  Alcotest.(check int) "floor unchanged" (Regular_object_gc.floor obj ~reader:1)
    (Regular_object_gc.floor handled ~reader:1);
  at_most "GC object's READ1 with an unchanged floor" 40.
    (words (fun () -> Regular_object_gc.handle obj ~src again))

(* A warm single-register read through the round driver, its objects
   stepped by hand as [test driver] does: ABD at S = 3 (t = 1, b = 0),
   fan-out 2, after one write.  Returns the read. *)
let driver_read ?metrics () =
  let module P = Baseline.Abd.Regular in
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let objs = Array.init 3 (fun i -> P.obj_init ~cfg ~index:(i + 1)) in
  let sent = Queue.create () in
  let host =
    {
      Driver.send = (fun ~slot ~key:_ ~sender:_ m -> Queue.add (slot, m) sent);
      connected = (fun _ -> true);
      unanswered = (fun _ -> 0);
      answers = Baseline.Abd.answers;
      start_span =
        (fun kind ~proc ~now ->
          Obs.Span.create ~id:0 kind ~proc ~now ~trace_pos:0);
      trace_pos = (fun () -> 0);
    }
  in
  let d =
    Driver.create ?metrics (module P) ~host ~map:(Shard.Map.single cfg)
      ~fanout:(Quorum.Config.quorum cfg) ~reader:1 ~readers:1
  in
  let now = ref 0 in
  let run op ~lane ~src =
    Driver.load d ~on_event:ignore [| op |];
    Driver.pump d ~now:!now;
    while not (Queue.is_empty sent) do
      let slot, m = Queue.pop sent in
      let o, reply = P.obj_handle objs.(slot) ~src m in
      objs.(slot) <- o;
      Option.iter (Driver.deliver d ~now:!now ~slot ~key:0 ~lane) reply;
      Driver.pump d ~now:!now
    done;
    if not (Driver.finished d) then failwith "the op did not complete";
    incr now
  in
  run (Driver.Write { key = 0; value = Value.v "x" }) ~lane:Driver.writer
    ~src:Sim.Proc_id.Writer;
  fun () -> run (Driver.Read { key = 0 }) ~lane:0 ~src:(Sim.Proc_id.Reader 1)

let metered_driver_read () =
  let plain = words (driver_read ()) in
  let metered = words (driver_read ~metrics:(Obs.Metrics.create ()) ()) in
  at_most
    (Printf.sprintf "metering a driver read (%.0f words unmetered)" plain)
    64. (metered -. plain)

let suite =
  ( "alloc",
    [
      Alcotest.test_case "round-1 decision allocates at most 300 words" `Quick
        round1_decision;
      Alcotest.test_case "READ1_ACK_H encode allocates nothing" `Quick
        encode_history_ack;
      Alcotest.test_case "GC READ1 with an unchanged floor: at most 40 words"
        `Quick gc_read_same_floor;
      Alcotest.test_case "metering a driver read: at most 64 more words"
        `Quick metered_driver_read;
    ] )
