(* Multi-domain server group: sharding, backpressure, graceful drain.

   The start_group runtime promises (ISSUE 8):
   - graceful stop drains each connection's write queue before closing:
     a client that keeps reading sees only complete, decodable frames
     and then a clean EOF — never a truncated frame;
   - a slow reader's full write queue pauses only that connection (the
     server stops reading it until the queue drains) and no reply is
     ever dropped: every request eventually gets its complete response;
   - base objects are partitioned across worker domains (owner = slot
     mod domains) and no automaton is ever stepped outside its owner,
     across accept, reconnect and crash/restart churn;
   - the acceptor->worker handoff queue delivers every element exactly
     once, FIFO per producer, under concurrent multi-domain pushes;
   - the metrics JSONL export round-trips (the 'load' driver merges
     per-process registries through it). *)

let cfg4 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let codec = Net.Codec.messages

let protocol = Net.Protocols.safe

let fresh_tmpdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "scaleout-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let start_group ?metrics ?queue_hi ~domains () =
  let dir = fresh_tmpdir () in
  let endpoints =
    Array.init 4 (fun i ->
        Net.Endpoint.Unix_sock
          (Filename.concat dir (Printf.sprintf "obj%d.sock" (i + 1))))
  in
  let servers =
    Net.Server.start_group ?metrics ?queue_hi ~domains ~protocol ~cfg:cfg4
      endpoints
  in
  (servers, Array.map Net.Server.endpoint servers, dir)

let seed_write endpoints =
  let w = Live_ops.single ~session:"w" ~protocol ~cfg:cfg4 endpoints in
  (match Live_ops.run_one w (Live_ops.write0 "durable") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed write failed: %s" e);
  Net.Client.Keyed.close w

(* ----- raw-socket helpers ----------------------------------------------- *)

(* A hand-driven connection: lets the tests control exactly when bytes
   are read, which is how a "slow reader" is built. *)
let raw_connect ~sender ep =
  let fd = Unix.socket (Net.Endpoint.socket_domain ep) Unix.SOCK_STREAM 0 in
  Unix.connect fd (Net.Endpoint.to_sockaddr ep);
  Net.Codec.send fd
    (Net.Codec.encode_frame codec (Net.Codec.Hello { proto = "safe"; sender; obj = 0 }));
  let reader = Net.Codec.Reader.create () in
  let rec await_ack () =
    match Net.Codec.Reader.next codec reader with
    | Ok (`Frame (Net.Codec.Hello_ack _)) -> ()
    | Ok (`Frame f) ->
        Alcotest.failf "expected hello_ack, got %s"
          (Net.Codec.frame_info ~msg_info:(fun _ -> "msg") f)
    | Ok `Awaiting ->
        if Net.Codec.recv_into fd reader = 0 then
          Alcotest.fail "EOF before hello_ack"
        else await_ack ()
    | Error e -> Alcotest.failf "corrupt hello_ack: %s" e
  in
  await_ack ();
  (fd, reader)

(* Read frames until EOF; returns the decoded count.  Any decode error
   fails the test — that is the drain guarantee under scrutiny. *)
let drain_until_eof what fd reader =
  let n = ref 0 in
  let rec go () =
    match Net.Codec.Reader.next codec reader with
    | Ok (`Frame (Net.Codec.Msg_key _)) ->
        incr n;
        go ()
    | Ok (`Frame f) ->
        Alcotest.failf "%s: unexpected frame %s" what
          (Net.Codec.frame_info ~msg_info:(fun _ -> "msg") f)
    | Ok `Awaiting ->
        if Net.Codec.recv_into fd reader = 0 then begin
          (* clean EOF: no partial frame may remain buffered *)
          Alcotest.(check int)
            (what ^ ": no truncated frame at EOF")
            0
            (Net.Codec.Reader.pending reader);
          !n
        end
        else go ()
    | Error e -> Alcotest.failf "%s: decode error mid-drain: %s" what e
  in
  go ()

let read1_frame ~sender ~tsr =
  Net.Codec.encode_frame codec
    (Net.Codec.Msg_key
       { key = 0; sender; msg = Core.Messages.Read1 { tsr; from_ts = 0 } })

(* [readers] reader lanes of the single register, window [readers]. *)
let lanes ~opts ~readers endpoints =
  Net.Client.Keyed.connect ~opts ~max_inflight:readers ~readers ~protocol
    ~map:(Shard.Map.single cfg4) endpoints

let key0_reads n = Array.make n (Net.Client.Keyed.Read { key = 0 })

(* ----- graceful stop drains write queues -------------------------------- *)

let graceful_stop_drains_frames () =
  let servers, endpoints, _ = start_group ~domains:2 () in
  seed_write endpoints;
  let fd, reader = raw_connect ~sender:"r1" endpoints.(0) in
  (* pipeline a burst of requests, read nothing yet *)
  let burst = Buffer.create 4096 in
  for tsr = 1 to 500 do
    Buffer.add_string burst (read1_frame ~sender:"r1" ~tsr)
  done;
  Net.Codec.send fd (Buffer.contents burst);
  (* let the worker read and answer some of it, then stop under load *)
  Thread.delay 0.05;
  let stopper =
    Thread.create (fun () -> Array.iter Net.Server.stop servers) ()
  in
  let got = drain_until_eof "graceful stop" fd reader in
  Thread.join stopper;
  Unix.close fd;
  if got = 0 then
    Alcotest.fail "graceful stop drained nothing (expected queued replies)";
  Alcotest.(check bool) "at most one reply per request" true (got <= 500)

(* The same regression at the operation level: a pipelined client with
   16 ops in flight while every server stops.  run_ops must return an
   outcome (Ok or a timeout error) for every op — no decode exception,
   no hang. *)
let stop_under_inflight_window () =
  let servers, endpoints, _ = start_group ~domains:2 () in
  seed_write endpoints;
  let opts = { Net.Client.deadline = 0.05; retries = 0; backoff = 0.01 } in
  let client = lanes ~opts ~readers:16 endpoints in
  let results = ref [||] in
  let runner =
    Thread.create
      (fun () -> results := Net.Client.Keyed.run_ops client (key0_reads 200))
      ()
  in
  Thread.delay 0.02;
  Array.iter Net.Server.stop servers;
  Thread.join runner;
  Net.Client.Keyed.close client;
  Alcotest.(check int) "every op got an outcome" 200 (Array.length !results);
  Array.iter
    (function
      | Ok (o : Net.Client.outcome) ->
          Alcotest.(check string)
            "completed op read the seeded value" "durable"
            (match o.value with Some v -> Core.Value.to_string v | None -> "")
      | Error _ -> ())
    !results

(* ----- backpressure isolates the slow connection ------------------------- *)

let backpressure_isolates_slow_reader () =
  let registries = Array.init 4 (fun _ -> Obs.Metrics.create ()) in
  let servers, endpoints, _ =
    start_group
      ~metrics:(fun i -> registries.(i))
      ~queue_hi:4096 ~domains:1 ()
  in
  seed_write endpoints;
  let total = 5000 in
  (* slow connection: floods object 1 with requests, reads nothing *)
  let fd, reader = raw_connect ~sender:"r9" endpoints.(0) in
  let feeder =
    Thread.create
      (fun () ->
        (* blocks once the server pauses the connection and the socket
           buffers fill — exactly the backpressure under test *)
        for tsr = 1 to total do
          Net.Codec.send fd (read1_frame ~sender:"r9" ~tsr)
        done)
      ()
  in
  Thread.delay 0.05;
  (* a well-behaved client on the same server must be unaffected *)
  let c = Live_ops.single ~protocol ~cfg:cfg4 endpoints in
  for k = 1 to 50 do
    match Live_ops.run_one c Live_ops.read0 with
    | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "concurrent read %d sees the write" k)
          "durable"
          (match o.value with Some v -> Core.Value.to_string v | None -> "")
    | Error e -> Alcotest.failf "read %d starved by backpressure: %s" k e
  done;
  Net.Client.Keyed.close c;
  (* now drain the slow connection: every request must have its reply *)
  let got = ref 0 in
  let rec pump () =
    if !got < total then begin
      (match Net.Codec.Reader.next codec reader with
      | Ok (`Frame _) -> incr got
      | Ok `Awaiting ->
          if Net.Codec.recv_into fd reader = 0 then
            Alcotest.failf "EOF after %d/%d replies (frames dropped)" !got
              total
      | Error e -> Alcotest.failf "decode error after %d replies: %s" !got e);
      pump ()
    end
  in
  pump ();
  Thread.join feeder;
  Unix.close fd;
  Alcotest.(check int) "one reply per request, none dropped" total !got;
  (* the pause must actually have engaged, and been observed *)
  let stalls =
    match Obs.Metrics.find_histogram registries.(0) "wire.backpressure_stalls" with
    | Some h -> Obs.Metrics.Histogram.count h
    | None -> 0
  in
  if stalls = 0 then
    Alcotest.fail "no backpressure stall recorded (queue never paused?)";
  (match Obs.Metrics.find_histogram registries.(0) "wire.queue_depth" with
  | Some h ->
      if Obs.Metrics.Histogram.count h = 0 then
        Alcotest.fail "queue depth histogram empty"
  | None -> Alcotest.fail "wire.queue_depth not recorded");
  Array.iter Net.Server.stop servers

(* ----- domain partitioning under crash/restart churn --------------------- *)

let partition_safe_under_churn () =
  let servers, endpoints, _ = start_group ~domains:3 () in
  let servers = ref servers in
  seed_write endpoints;
  let opts = { Net.Client.deadline = 0.5; retries = 5; backoff = 0.02 } in
  let client = lanes ~opts ~readers:8 endpoints in
  let churner =
    Thread.create
      (fun () ->
        (* crash/restart one object repeatedly: connections reset, the
           slot's worker loses and regains work, clients reconnect *)
        for _ = 1 to 3 do
          Thread.delay 0.03;
          Net.Server.crash !servers.(2);
          Thread.delay 0.03;
          !servers.(2) <- Net.Server.restart !servers.(2)
        done)
      ()
  in
  let failures = ref 0 in
  Array.iter
    (function Ok _ -> () | Error _ -> incr failures)
    (Net.Client.Keyed.run_ops client (key0_reads 600));
  Thread.join churner;
  Net.Client.Keyed.close client;
  (* at most t = 1 object was ever down: reads keep completing *)
  Alcotest.(check int) "reads survive the churn" 0 !failures;
  Alcotest.(check int) "no object stepped outside its owning domain" 0
    (Net.Server.partition_violations !servers.(0));
  Array.iter Net.Server.stop !servers

(* ----- handoff queue: exactly-once, FIFO per producer -------------------- *)

let handoff_multi_producer =
  let gen =
    QCheck.Gen.(list_size (1 -- 3) (list_size (0 -- 200) small_nat))
  in
  let arb =
    QCheck.make
      ~print:(fun ls ->
        Printf.sprintf "<%s>"
          (String.concat ";" (List.map (fun l -> string_of_int (List.length l)) ls)))
      gen
  in
  QCheck.Test.make ~name:"handoff delivers exactly once, FIFO per producer"
    ~count:25 arb (fun lists ->
      let q = Exec.Handoff.create () in
      let total = List.fold_left (fun a l -> a + List.length l) 0 lists in
      let producers =
        List.mapi
          (fun pid xs ->
            Domain.spawn (fun () ->
                List.iter (fun x -> Exec.Handoff.push q (pid, x)) xs))
          lists
      in
      (* consume concurrently with the producers *)
      let seen = ref [] in
      let n = ref 0 in
      while !n < total do
        match Exec.Handoff.drain q with
        | [] -> Domain.cpu_relax ()
        | batch ->
            seen := List.rev_append batch !seen;
            n := !n + List.length batch
      done;
      List.iter Domain.join producers;
      if Exec.Handoff.drain q <> [] then
        QCheck.Test.fail_report "elements appeared after full drain";
      let seen = List.rev !seen in
      (* per-producer order is the push order *)
      List.iteri
        (fun pid xs ->
          let got = List.filter_map
              (fun (p, x) -> if p = pid then Some x else None)
              seen
          in
          if got <> xs then
            QCheck.Test.fail_reportf "producer %d order broken" pid)
        lists;
      true)

(* ----- metrics JSONL round-trip (the 'load' merge path) ------------------ *)

let jsonl_roundtrip () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add reg "op.read.completed" 400;
  Obs.Metrics.incr reg "op.reconnects";
  Obs.Metrics.set_gauge reg "net.peak" 17.5;
  Obs.Metrics.observe_int reg "wire.batch_size"
    ~bounds:Obs.Metrics.batch_bounds 3;
  Obs.Metrics.observe_int reg "wire.batch_size"
    ~bounds:Obs.Metrics.batch_bounds 900 (* overflow bucket *);
  Obs.Metrics.observe reg "op.read.latency_us"
    ~bounds:Obs.Metrics.latency_bounds 123.0;
  let text = Obs.Export.metrics_jsonl ~labels:[ ("proc", "1") ] reg in
  let back =
    match Obs.Export.metrics_of_jsonl text with
    | Ok m -> m
    | Error e -> Alcotest.failf "reimport failed: %s" e
  in
  Alcotest.(check (list (pair string int)))
    "counters round-trip" (Obs.Metrics.counters reg)
    (Obs.Metrics.counters back);
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauges round-trip" (Obs.Metrics.gauges reg) (Obs.Metrics.gauges back);
  List.iter2
    (fun (na, ha) (nb, hb) ->
      Alcotest.(check string) "histogram name" na nb;
      Alcotest.(check bool)
        (na ^ " buckets round-trip") true
        (Obs.Metrics.Histogram.equal ha hb);
      Alcotest.(check (float 1e-6))
        (na ^ " sum round-trips")
        (Obs.Metrics.Histogram.sum ha)
        (Obs.Metrics.Histogram.sum hb))
    (Obs.Metrics.histograms reg)
    (Obs.Metrics.histograms back);
  (* merging two exports into one registry = merge_into across processes *)
  let reg2 = Obs.Metrics.create () in
  Obs.Metrics.add reg2 "op.read.completed" 100;
  Obs.Metrics.observe_int reg2 "wire.batch_size"
    ~bounds:Obs.Metrics.batch_bounds 7;
  let merged =
    match
      Obs.Export.metrics_of_jsonl
        ~into:
          (match Obs.Export.metrics_of_jsonl text with
          | Ok m -> m
          | Error e -> Alcotest.failf "first import failed: %s" e)
        (Obs.Export.metrics_jsonl reg2)
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "merge import failed: %s" e
  in
  Alcotest.(check int) "counters add across processes" 500
    (Obs.Metrics.counter_value merged "op.read.completed");
  (match Obs.Metrics.find_histogram merged "wire.batch_size" with
  | Some h -> Alcotest.(check int) "histograms merge" 3 (Obs.Metrics.Histogram.count h)
  | None -> Alcotest.fail "merged histogram missing")

let suite =
  ( "scaleout",
    [
      Alcotest.test_case "graceful stop drains queued frames" `Quick
        graceful_stop_drains_frames;
      Alcotest.test_case "server stop under a 16-deep mux window" `Quick
        stop_under_inflight_window;
      Alcotest.test_case "backpressure pauses only the slow connection" `Quick
        backpressure_isolates_slow_reader;
      Alcotest.test_case "partitioning holds under crash/restart churn" `Quick
        partition_safe_under_churn;
      QCheck_alcotest.to_alcotest handoff_multi_producer;
      Alcotest.test_case "metrics JSONL export/import round-trips" `Quick
        jsonl_roundtrip;
    ] )
