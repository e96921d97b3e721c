(* The §5.1 one-round fast-read belt (ISSUE 7): the cached/suffix read
   variant behaves identically in the simulator and over real sockets.

   Four layers:

   - golden spans for regular-gc at S = 2t+2b+1 pin the fast path's
     shape byte-for-byte: every read reports 1 round and initiates only
     1 (span.rounds = 1).  No Read2 follows a decision: it would carry
     the same from_ts as the Read1 before it, so it could not advance a
     GC floor — the next read's Read1 does that;
   - sim <-> net conformance: the same sequential workload through the
     simulator and a loopback cluster yields identical (value,
     reported-rounds) sequences — 1 round both at S = 2t+2b+1 and at
     S = 2t+b+1, where with no lie and no overlapping write a read
     still decides on round-1 evidence (Proposition 1 only forbids
     that for every read) — and on the wire no read sends a Read2;
   - qcheck properties for the suffix-history optimization: pruned
     replies round-trip bit-exactly through the wire codec, truncation
     never raises, and suffix(from_ts) + the pruned prefix always
     reassembles the full history;
   - cache-resync: the reader automaton's on_reconnect clears its §5.1
     cache (idle) or defers the clear past the in-flight op (mid-read),
     and a live wiped restart bumps op.cache_resyncs without ever
     serving a stale value. *)

open Core

module Gc = Core.Scenario.Make (Core.Proto_regular_gc.Make (struct
  let readers = 2
end))

let delay = Sim.Delay.uniform ~lo:1 ~hi:10

(* S = 2t+2b+1: every read is one round despite b lies. *)
let cfg_fast = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1

(* S = 2t+b+1: optimal resilience, below the Proposition 1 bound. *)
let cfg_slow = Quorum.Config.optimal ~t:1 ~b:1

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* ----- golden spans ------------------------------------------------------ *)

(* Exactly `robustread trace -p regular-gc -s 5 -t 1 -b 1 --writes 2
   --reads 2 --seed 42` (see golden/README.md). *)
let schedule =
  let rng = Sim.Prng.create ~seed:42 in
  Core.Schedule.merge
    (Workload.Generate.sequential ~writes:2 ~readers:2 ~gap:60)
    (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:2
       ~reads_per_reader:2 ~horizon:720)

let gc_export () =
  let rep =
    Gc.run ~trace:true ~cfg:cfg_fast ~seed:42 ~delay ~faults:Gc.no_faults
      schedule
  in
  Obs.Export.spans_jsonl rep.spans

let test_two_runs_identical () =
  Alcotest.(check string)
    "byte-identical across runs" (gc_export ()) (gc_export ())

let test_matches_golden () =
  Alcotest.(check string)
    "regular_gc_spans.jsonl matches checked-in golden"
    (Suite_golden_trace.read_golden "regular_gc_spans.jsonl")
    (gc_export ())

let test_golden_span_shape () =
  let rep =
    Gc.run ~cfg:cfg_fast ~seed:42 ~delay ~faults:Gc.no_faults schedule
  in
  let reads, writes =
    List.partition
      (fun s ->
        match s.Obs.Span.kind with Obs.Span.Read _ -> true | Write -> false)
      rep.spans
  in
  Alcotest.(check bool) "workload has reads" true (reads <> []);
  List.iter
    (fun s ->
      (* the decision lands on round-1 evidence, and no round 2 is
         initiated after it *)
      Alcotest.(check (option int)) "read reports one round" (Some 1)
        s.Obs.Span.reported_rounds;
      Alcotest.(check int) "read initiates one round" 1 s.Obs.Span.rounds)
    reads;
  List.iter
    (fun s ->
      Alcotest.(check (option int)) "write takes two rounds" (Some 2)
        s.Obs.Span.reported_rounds)
    writes

(* ----- sim <-> net conformance ------------------------------------------- *)

(* The same sequential workload — write v_k, then one read, three
   times — through both backends.  Sequential means no concurrency, so
   values are fully determined and the per-read reported round count is
   the protocol's, not the scheduler's. *)
let sim_read_pairs cfg =
  let sched = Workload.Generate.sequential ~writes:3 ~readers:1 ~gap:60 in
  let rep = Gc.run ~cfg ~seed:7 ~delay ~faults:Gc.no_faults sched in
  Alcotest.(check bool) "sim run quiescent" true rep.quiescent;
  List.filter_map
    (fun (o : Gc.outcome) ->
      match o.op with
      | Core.Schedule.Read _ ->
          Some
            ( (match o.result with Some v -> Value.to_string v | None -> "?"),
              o.rounds )
      | Core.Schedule.Write _ -> None)
    rep.outcomes

(* Returns the (value, reported rounds) pairs, the cluster's merged
   metrics, whose wire.read.* counters count the reader's requests, and
   the op.expand.* widenings counted while a read ran (a write's hedge
   sends no Read1). *)
let net_read_pairs cfg =
  let c =
    Net.Cluster.start
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let metrics () = Net.Cluster.metrics c in
      let widenings () =
        let m = metrics () in
        List.fold_left
          (fun n k -> n + Obs.Metrics.counter_value m k)
          0
          [ "op.expand.hedge"; "op.expand.lost"; "op.expand.undecided" ]
      in
      let pairs = ref [] and read_widenings = ref 0 in
      for k = 1 to 3 do
        let _ =
          ok_exn "write"
            (Live_ops.write e (Printf.sprintf "v%d" k))
        in
        let before = widenings () in
        let o = ok_exn "read" (Live_ops.read e) in
        read_widenings := !read_widenings + widenings () - before;
        let v =
          match o.Net.Client.value with
          | Some v -> Value.to_string v
          | None -> "?"
        in
        pairs := (v, o.Net.Client.rounds) :: !pairs
      done;
      let equal = String.equal in
      Alcotest.(check bool) "live history safe" true
        (Histories.Checks.is_safe ~equal (Net.Cluster.history c));
      Alcotest.(check bool) "live history regular" true
        (Histories.Checks.is_regular ~equal (Net.Cluster.history c));
      (List.rev !pairs, metrics (), !read_widenings))

let pair_list = Alcotest.(list (pair string int))

let conformance_at_fast_bound () =
  let sim = sim_read_pairs cfg_fast and net, m, _ = net_read_pairs cfg_fast in
  let r2_sent = Obs.Metrics.counter_value m "wire.read.r2.req.sent" in
  Alcotest.(check pair_list)
    "identical values and reported rounds at S=2t+2b+1"
    [ ("v1", 1); ("v2", 1); ("v3", 1) ]
    sim;
  Alcotest.(check pair_list) "net conforms to sim" sim net;
  Alcotest.(check int) "a fast read sends no Read2" 0 r2_sent

(* Below the bound a sequential read meets no lie and no overlapping
   write, so it decides on round 1 as at the bound.  Each round goes to
   S−t objects (DESIGN §17) and widens by one frame per counted
   op.expand.* trigger (t = 1 leaves one member skipped). *)
let conformance_below_fast_bound () =
  let sim = sim_read_pairs cfg_slow
  and net, m, widenings = net_read_pairs cfg_slow in
  Alcotest.(check pair_list)
    "identical values, one round at S=2t+b+1"
    [ ("v1", 1); ("v2", 1); ("v3", 1) ]
    sim;
  Alcotest.(check pair_list) "net conforms to sim" sim net;
  let count = Obs.Metrics.counter_value m in
  let q = Quorum.Config.quorum cfg_slow and reads = List.length net in
  Alcotest.(check int) "no retransmits" 0 (count "net.client.retransmits");
  Alcotest.(check int)
    "every read sends Read1 to S-t objects, plus widenings"
    ((q * reads) + widenings)
    (count "wire.read.r1.req.sent");
  Alcotest.(check int) "no read sends Read2" 0
    (count "wire.read.r2.req.sent")

(* ----- Proposition 1 in the simulator ------------------------------------ *)

(* Object 1 forges a high entry into every history it sends a reader,
   and object S is slow, so the forger is always among a read's first
   S−t responders.  At S = 2t+b+1 these are t+b+1 objects: the forgery
   has one voucher (not safe) and t+b dissenters (not dropped), so the
   read must run round 2 and wait for object S — Proposition 1's case.
   At S = 2t+2b+1 the t+b+1 other responders drop it on round 1. *)
let forged_read_pairs cfg =
  let s = cfg.Quorum.Config.s in
  let delay =
    Sim.Delay.slow_process
      ~slow:(Sim.Proc_id.Set.singleton (Sim.Proc_id.Obj s))
      ~factor:20 (Sim.Delay.constant 2)
  in
  let faults =
    {
      Gc.no_faults with
      byzantine =
        [ (1, Fault.Strategies.forge_history ~value:"ghost" ~ts_boost:5) ];
    }
  in
  let sched = Workload.Generate.sequential ~writes:2 ~readers:1 ~gap:200 in
  let rep = Gc.run ~cfg ~seed:3 ~delay ~faults sched in
  Alcotest.(check bool) "sim run quiescent" true rep.quiescent;
  Alcotest.(check bool) "history regular despite the forger" true
    (Histories.Checks.is_regular ~equal:String.equal rep.history);
  List.filter_map
    (fun (o : Gc.outcome) ->
      match (o.op, o.result) with
      | Core.Schedule.Read _, Some v -> Some (Value.to_string v, o.rounds)
      | _ -> None)
    rep.outcomes

let lie_forces_round_two_only_below_bound () =
  Alcotest.(check pair_list)
    "S=2t+b+1: the forger's responders need round 2"
    [ ("v1", 2); ("v2", 2) ]
    (forged_read_pairs cfg_slow);
  Alcotest.(check pair_list)
    "S=2t+2b+1: the forgery is dropped on round 1"
    [ ("v1", 1); ("v2", 1) ]
    (forged_read_pairs cfg_fast)

(* ----- suffix-history properties ----------------------------------------- *)

(* Suffix semantics live on real (non-negative, smallish) timestamps;
   the full-int-range varint coverage is suite_net_codec's job. *)
let gen_ts = QCheck.Gen.(0 -- 16)

let gen_value =
  QCheck.Gen.(oneof [ return Value.bottom; map Value.v (string_size (0 -- 16)) ])

let gen_tsval = QCheck.Gen.(map2 (fun ts v -> Tsval.make ~ts ~v) gen_ts gen_value)

let gen_wtuple =
  QCheck.Gen.(
    map (fun tsval -> Wtuple.make ~tsval ~tsrarray:Tsr_matrix.empty) gen_tsval)

let gen_history =
  QCheck.Gen.(
    map
      (fun entries ->
        List.fold_left
          (fun h (ts, pw, w) -> History_store.set h ~ts { History_store.pw; w })
          History_store.init entries)
      (list_size (0 -- 6) (triple gen_ts gen_tsval (option gen_wtuple))))

let print_hist_cut (h, from_ts) =
  Format.asprintf "from_ts=%d %a" from_ts History_store.pp h

let arb_hist_cut =
  QCheck.make ~print:print_hist_cut
    QCheck.Gen.(pair gen_history (0 -- 20))

(* suffix(from_ts) ++ the entries below from_ts == the full history:
   exactly the reassembly a cached reader performs when an object ships
   only what the reader does not already hold. *)
let suffix_plus_prefix_is_full =
  QCheck.Test.make ~name:"suffix(from_ts) + cached prefix reassembles history"
    ~count:500 arb_hist_cut (fun (h, from_ts) ->
      let sfx = History_store.suffix h ~from_ts in
      (* the suffix holds exactly the entries >= from_ts *)
      List.for_all (fun (ts, _) -> ts >= from_ts) (History_store.bindings sfx)
      &&
      let rebuilt =
        List.fold_left
          (fun acc (ts, e) ->
            if ts < from_ts then History_store.set acc ~ts e else acc)
          sfx (History_store.bindings h)
      in
      History_store.equal rebuilt h)

let suffix_monotone =
  QCheck.Test.make ~name:"suffix is monotone and idempotent" ~count:300
    arb_hist_cut (fun (h, from_ts) ->
      let sfx = History_store.suffix h ~from_ts in
      History_store.equal sfx (History_store.suffix sfx ~from_ts)
      && History_store.length sfx <= History_store.length h
      && History_store.equal h (History_store.suffix h ~from_ts:0))

let gen_suffix_msg =
  QCheck.Gen.(
    map3
      (fun tsr (h, from_ts) round ->
        let history = History_store.suffix h ~from_ts in
        if round = 1 then Messages.Read1_ack_h { tsr; history }
        else Messages.Read2_ack_h { tsr; history })
      (0 -- 1000)
      (pair gen_history (0 -- 20))
      (1 -- 2))

let arb_suffix_msg = QCheck.make ~print:Messages.info gen_suffix_msg

let hist_of = function
  | Messages.Read1_ack_h { history; _ } | Messages.Read2_ack_h { history; _ }
    ->
      history
  | _ -> History_store.empty

(* Pruned replies are just histories — the wire codec must carry them
   bit-exactly inside key-tagged frames, and the reassembled bytes must
   be stable under re-encoding. *)
let suffix_frames_roundtrip =
  QCheck.Test.make ~name:"suffix-history acks round-trip bit-exactly"
    ~count:500 arb_suffix_msg (fun m ->
      let codec = Net.Codec.messages in
      let bytes = Net.Codec.encode_msg codec m in
      (match Net.Codec.decode_msg codec bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
          if not (History_store.equal (hist_of m) (hist_of m')) then
            QCheck.Test.fail_reportf "history mangled: %s vs %s"
              (Messages.info m) (Messages.info m');
          if not (String.equal bytes (Net.Codec.encode_msg codec m')) then
            QCheck.Test.fail_reportf "re-encode differs");
      let wire =
        Net.Codec.encode_frame codec
          (Net.Codec.Msg_key { key = 0; sender = "r2"; msg = m })
      in
      let payload = String.sub wire 4 (String.length wire - 4) in
      match Net.Codec.decode_payload codec payload with
      | Ok (Net.Codec.Msg_key { key = 0; sender = "r2"; msg }) ->
          History_store.equal (hist_of m) (hist_of msg)
      | Ok _ -> QCheck.Test.fail_reportf "frame shape changed"
      | Error e -> QCheck.Test.fail_reportf "frame decode failed: %s" e)

let suffix_truncation_never_raises =
  QCheck.Test.make
    ~name:"truncated/mutated suffix acks decode to Error, never raise"
    ~count:200 arb_suffix_msg (fun m ->
      let codec = Net.Codec.messages in
      let bytes = Net.Codec.encode_msg codec m in
      let ok = ref true in
      for len = 0 to String.length bytes - 1 do
        match Net.Codec.decode_msg codec (String.sub bytes 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      (* flip each byte once: Error or a decode, never an exception *)
      String.iteri
        (fun pos _ ->
          let b = Bytes.of_string bytes in
          Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0xff);
          match Net.Codec.decode_msg codec (Bytes.to_string b) with
          | Ok _ | Error _ -> ()
          | exception _ -> ok := false)
        bytes;
      !ok)

(* ----- automaton cache resync -------------------------------------------- *)

(* Drive Regular_reader directly with synthetic acks: b = 0, so a single
   voucher suffices and three identical honest histories decide a read
   on round-1 evidence. *)
let rr_cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let w1 =
  Wtuple.make
    ~tsval:(Tsval.make ~ts:1 ~v:(Value.v "x"))
    ~tsrarray:Tsr_matrix.empty

let hist_with_w1 =
  History_store.on_w History_store.init ~ts':1 ~pw':w1.Wtuple.tsval ~w':w1

let start_exn t =
  match Regular_reader.start_read t with
  | Ok (t, Messages.Read1 { tsr; from_ts }) -> (t, tsr, from_ts)
  | Ok _ -> Alcotest.fail "start_read emitted a non-Read1 message"
  | Error e -> Alcotest.failf "start_read failed: %s" e

(* Feed round-1 acks from objects [objs]; return the state plus any
   Return event. *)
let feed_round1 t ~tsr objs =
  List.fold_left
    (fun (t, ret) obj ->
      let t, evs =
        Regular_reader.on_message t ~obj
          (Messages.Read1_ack_h { tsr; history = hist_with_w1 })
      in
      let ret =
        List.fold_left
          (fun acc -> function
            | Regular_reader.Return { value; rounds } -> Some (value, rounds)
            | Regular_reader.Broadcast _ -> acc)
          ret evs
      in
      (t, ret))
    (t, None) objs

let decide_one_read t =
  let t, tsr, _ = start_exn t in
  match feed_round1 t ~tsr [ 1; 2; 3 ] with
  | t, Some (v, rounds) -> (t, v, rounds)
  | _, None -> Alcotest.fail "three honest acks did not decide the read"

let cache_feeds_from_ts () =
  let t =
    Regular_reader.init ~cfg:rr_cfg ~j:1 ~cached:true ()
  in
  let _, _, from_ts = start_exn t in
  Alcotest.(check int) "first read requests the full history" 0 from_ts;
  let t, v, rounds = decide_one_read t in
  Alcotest.(check string) "decided value" "x" (Value.to_string v);
  Alcotest.(check int) "decided on round-1 evidence" 1 rounds;
  Alcotest.(check int) "cache adopted the decided timestamp" 1
    (Regular_reader.cache t).Tsval.ts;
  let _, _, from_ts = start_exn t in
  Alcotest.(check int) "next read asks only for the suffix" 1 from_ts

let idle_reconnect_clears_cache () =
  let t = Regular_reader.init ~cfg:rr_cfg ~j:1 ~cached:true () in
  let t, _, _ = decide_one_read t in
  let t = Regular_reader.on_reconnect t in
  Alcotest.(check int) "cache cleared while idle" 0
    (Regular_reader.cache t).Tsval.ts;
  let _, _, from_ts = start_exn t in
  Alcotest.(check int) "next read requests the full history again" 0 from_ts

let midop_reconnect_defers_clear () =
  let t = Regular_reader.init ~cfg:rr_cfg ~j:1 ~cached:true () in
  let t, _, _ = decide_one_read t in
  let t, tsr, from_ts = start_exn t in
  Alcotest.(check int) "in-flight read used the cache" 1 from_ts;
  (* one ack in: the op is mid-round-1 when the transport reconnects *)
  let t, ret = feed_round1 t ~tsr [ 1 ] in
  Alcotest.(check bool) "not yet decided" true (ret = None);
  let t = Regular_reader.on_reconnect t in
  Alcotest.(check int) "cache survives for the in-flight op" 1
    (Regular_reader.cache t).Tsval.ts;
  (* the op still completes on the surviving evidence *)
  (match feed_round1 t ~tsr [ 2; 3 ] with
  | t, Some (v, _) ->
      Alcotest.(check string) "in-flight read decided" "x" (Value.to_string v);
      (* ...and only the NEXT read consumes the stale flag *)
      let _, _, from_ts = start_exn t in
      Alcotest.(check int) "next read requests the full history" 0 from_ts
  | _, None -> Alcotest.fail "in-flight read never decided")

let uncached_reader_ignores_reconnect () =
  let t = Regular_reader.init ~cfg:rr_cfg ~j:1 ~cached:false () in
  let t' = Regular_reader.on_reconnect t in
  let _, _, from_ts = start_exn t' in
  Alcotest.(check int) "uncached readers always send from_ts=0" 0 from_ts

(* ----- live cache resync -------------------------------------------------- *)

let live_wiped_restart_resyncs () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.5; retries = 8; backoff = 0.01 }
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg:cfg_fast ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let writer, readers = Net.Cluster.processes c ~readers:1 in
      let e = readers.(0) in
      let _ = ok_exn "write v1" (Live_ops.write writer "v1") in
      let o = ok_exn "read v1" (Live_ops.read e) in
      Alcotest.(check (option string)) "cached read sees v1" (Some "v1")
        (Option.map Value.to_string o.Net.Client.value);
      (* Wipe one object: the suffix it would serve for the reader's
         cached timestamp no longer covers what the reader pruned. *)
      Net.Cluster.crash c 2;
      Net.Cluster.restart_exn ~wipe:true c 2;
      let _ = ok_exn "write v2" (Live_ops.write writer "v2") in
      let resyncs () =
        Obs.Metrics.counter_value (Net.Cluster.metrics c) "op.cache_resyncs"
      in
      (* Reconnects are lazy and backed off (~50ms): keep reading until
         the reader's client re-dials the wiped object.  Every read in
         the meantime must already serve the fresh value. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let last = ref None in
      let i = ref 0 in
      while resyncs () = 0 && Unix.gettimeofday () < deadline do
        incr i;
        let o =
          ok_exn (Printf.sprintf "read %d after wipe" !i) (Live_ops.read e)
        in
        last := Option.map Value.to_string o.Net.Client.value;
        Alcotest.(check (option string)) "post-wipe read is never stale"
          (Some "v2") !last;
        Thread.delay 0.02
      done;
      Alcotest.(check bool) "op.cache_resyncs counted" true (resyncs () > 0);
      (* and the first read after the resync asks for the full history,
         so it is still correct *)
      let o = ok_exn "read after resync" (Live_ops.read e) in
      Alcotest.(check (option string)) "post-resync read" (Some "v2")
        (Option.map Value.to_string o.Net.Client.value);
      let equal = String.equal in
      Alcotest.(check bool) "history stays safe across the wipe" true
        (Histories.Checks.is_safe ~equal (Net.Cluster.history c));
      Alcotest.(check bool) "history stays regular across the wipe" true
        (Histories.Checks.is_regular ~equal (Net.Cluster.history c)))

let suite =
  ( "fast-read",
    [
      Alcotest.test_case "regular-gc golden: two runs byte-identical" `Quick
        test_two_runs_identical;
      Alcotest.test_case "regular-gc matches golden" `Quick test_matches_golden;
      Alcotest.test_case "golden spans: reads report 1 round, initiate 1"
        `Quick test_golden_span_shape;
      Alcotest.test_case "sim <-> net conformance at S=2t+2b+1" `Quick
        conformance_at_fast_bound;
      Alcotest.test_case "sim <-> net conformance at S=2t+b+1" `Quick
        conformance_below_fast_bound;
      Alcotest.test_case "a lie forces round 2 only below 2t+2b+1" `Quick
        lie_forces_round_two_only_below_bound;
      QCheck_alcotest.to_alcotest suffix_plus_prefix_is_full;
      QCheck_alcotest.to_alcotest suffix_monotone;
      QCheck_alcotest.to_alcotest suffix_frames_roundtrip;
      QCheck_alcotest.to_alcotest suffix_truncation_never_raises;
      Alcotest.test_case "cached reader feeds its timestamp into from_ts"
        `Quick cache_feeds_from_ts;
      Alcotest.test_case "idle reconnect clears the cache" `Quick
        idle_reconnect_clears_cache;
      Alcotest.test_case "mid-op reconnect defers the clear" `Quick
        midop_reconnect_defers_clear;
      Alcotest.test_case "uncached readers ignore reconnects" `Quick
        uncached_reader_ignores_reconnect;
      Alcotest.test_case "live wiped restart resyncs the cache" `Quick
        live_wiped_restart_resyncs;
    ] )
