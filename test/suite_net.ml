(* Live-cluster integration tests: real sockets, real threads.

   The acceptance bar (ISSUE 4): a loopback cluster at S = 4 (t = 1,
   b = 0) completes 1000 READs with zero failures while one server is
   crashed partway through and restarted later, and the spans/metrics it
   emits flow through the existing exporters.

   These tests use Unix-domain sockets in a private tmpdir, so they are
   free of port collisions and run in well under a second each. *)

let cfg4 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let value_of (o : Net.Client.outcome) =
  match o.value with
  | Some v -> Core.Value.to_string v
  | None -> "<none>"

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ----- basic write/read over every packed protocol ---------------------- *)

let roundtrip_all_protocols () =
  List.iter
    (fun protocol ->
      let name = Net.Protocols.name protocol in
      let c = Net.Cluster.start ~protocol ~cfg:cfg4 () in
      Fun.protect
        ~finally:(fun () -> Net.Cluster.stop c)
        (fun () ->
          let e = Net.Cluster.engine c in
          let _ = ok_exn (name ^ " write") (Live_ops.write e "x1") in
          let o = ok_exn (name ^ " read") (Live_ops.read e) in
          Alcotest.(check string) (name ^ " reads the write") "x1" (value_of o)))
    (List.filter_map Net.Live.protocol_of Fault.Campaign.protocols)

let fast_read_is_one_round () =
  (* S = 4 > 2t + 2b with b = 0: the safe protocol's fast path applies,
     and over a quiet network a READ really is a single round trip. *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "v") in
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check int) "reported rounds" 1 o.rounds)

(* ----- replies match their requests ------------------------------------- *)

(* Drive [P]'s writer and two readers in-process against S objects,
   each round delivered to all of them, and pass every object reply to
   [on_reply src request reply]. *)
let exchange (type m) (module P : Core.Protocol_intf.S with type msg = m)
    ~name cfg ~(on_reply : Sim.Proc_id.t -> m -> m -> unit) =
  let s = cfg.Quorum.Config.s in
  let objs = Array.init s (fun i -> P.obj_init ~cfg ~index:(i + 1)) in
  let replies = ref 0 in
  let round src m =
    List.filter_map
      (fun i ->
        let o, reply = P.obj_handle objs.(i) ~src m in
        objs.(i) <- o;
        Option.map
          (fun r ->
            incr replies;
            on_reply src m r;
            (i + 1, r))
          reply)
      (List.init s Fun.id)
  in
  (* Feed the round's replies until the automaton decides or starts a
     new round; a broadcast sent next to a decision is delivered too. *)
  let rec drive src feed m =
    let rec go = function
      | [] -> Alcotest.failf "%s: undecided after %s" name (P.msg_info m)
      | (obj, r) :: rest -> (
          let evs = feed ~obj r in
          let next =
            List.find_map
              (function Core.Events.Broadcast m' -> Some m' | _ -> None)
              evs
          in
          let decided =
            List.exists
              (function Core.Events.Broadcast _ -> false | _ -> true)
              evs
          in
          match next with
          | Some m' when decided -> ignore (round src m')
          | Some m' -> drive src feed m'
          | None -> if not decided then go rest)
    in
    go (round src m)
  in
  let w = ref (P.writer_init ~cfg) in
  let write v =
    match P.writer_start !w (Core.Value.v v) with
    | Error e -> Alcotest.failf "%s: write: %s" name e
    | Ok (w', m) ->
        w := w';
        drive Sim.Proc_id.Writer
          (fun ~obj r ->
            let w', evs = P.writer_on_msg !w ~obj r in
            w := w';
            evs)
          m
  in
  let rds = Array.init 2 (fun j -> ref (P.reader_init ~cfg ~j:(j + 1))) in
  let read j =
    let rd = rds.(j - 1) in
    match P.reader_start !rd with
    | Error e -> Alcotest.failf "%s: read: %s" name e
    | Ok (rd', m) ->
        rd := rd';
        drive (Sim.Proc_id.Reader j)
          (fun ~obj r ->
            let rd', evs = P.reader_on_msg !rd ~obj r in
            rd := rd';
            evs)
          m
  in
  read 1;
  write "v1";
  read 1;
  read 2;
  write "v2";
  read 1;
  read 1;
  read 2;
  if !replies = 0 then Alcotest.failf "%s: no object replied" name

let on_every_protocol check =
  List.iter
    (fun cfg ->
      List.iter (check cfg)
        (List.filter_map Net.Live.protocol_of Fault.Campaign.protocols))
    [ cfg4; Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 ]

(* Metrics attribute a reply to a round by [P.msg_class], so for every
   protocol every object reply must carry its request's round. *)
let reply_rounds_match_requests () =
  on_every_protocol (fun cfg protocol ->
      let (Net.Protocols.Packed { proto = (module P); _ }) = protocol in
      let name = Net.Protocols.name protocol in
      exchange (module P) ~name cfg ~on_reply:(fun _ m r ->
          let want = (P.msg_class m).Obs.Wire.round
          and got = (P.msg_class r).Obs.Wire.round in
          if want <> got then
            Alcotest.failf "%s: %s answered by %s (round %d, not %d)" name
              (P.msg_info m) (P.msg_info r) got want))

(* The client counts a reply toward a round only when [Codec.answers]
   matches it to the round's current request, and its op.expand.*
   widenings depend on that count.  So every object reply must answer
   its own request and no earlier request of the same client — a late
   reply of the previous round or operation answers nothing current. *)
let replies_answer_only_their_request () =
  on_every_protocol (fun cfg protocol ->
      let (Net.Protocols.Packed { proto = (module P); codec }) = protocol in
      let name = Net.Protocols.name protocol in
      let sent = Hashtbl.create 4 in
      exchange (module P) ~name cfg ~on_reply:(fun src m r ->
          let earlier = Option.value (Hashtbl.find_opt sent src) ~default:[] in
          let earlier =
            match earlier with
            | m' :: _ when m' == m -> earlier
            | _ ->
                Hashtbl.replace sent src (m :: earlier);
                earlier
          in
          let answers request = Net.Codec.answers codec ~request r in
          if not (answers m) then
            Alcotest.failf "%s: %s does not answer %s" name (P.msg_info r)
              (P.msg_info m);
          List.iter
            (fun m' ->
              if m' != m && answers m' then
                Alcotest.failf "%s: %s (to %s) also answers the earlier %s"
                  name (P.msg_info r) (P.msg_info m) (P.msg_info m'))
            earlier))

(* ----- the 1000-READ crash/restart acceptance run ----------------------- *)

let acceptance_1000_reads () =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "durable") in
      let failures = ref 0 in
      for k = 1 to 1000 do
        if k = 250 then Net.Cluster.crash c 3;
        if k = 750 then Net.Cluster.restart_exn c 3;
        match Live_ops.read e with
        | Ok o ->
            if value_of o <> "durable" then begin
              incr failures;
              Format.eprintf "read %d returned %s@." k (value_of o)
            end
        | Error e ->
            incr failures;
            Format.eprintf "read %d failed: %s@." k e
      done;
      Alcotest.(check int) "zero failed reads across crash+restart" 0 !failures;
      Alcotest.(check (list int)) "all servers back up" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      (* the history is a real one: 1 write + 1000 reads, all safe *)
      let history = Net.Cluster.history c in
      Alcotest.(check int) "ops recorded" 1001 (List.length history);
      Alcotest.(check bool) "history safe" true
        (Histories.Checks.is_safe ~equal:String.equal history);
      Alcotest.(check bool) "history regular" true
        (Histories.Checks.is_regular ~equal:String.equal history);
      (* spans flow through the standard exporter, one line per op *)
      let spans = Net.Cluster.spans c in
      Alcotest.(check int) "all spans completed" 1001
        (List.length (List.filter Obs.Span.completed spans));
      let jsonl = Obs.Export.spans_jsonl spans in
      Alcotest.(check int) "one JSONL line per span" 1001
        (List.length
           (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)));
      (* merged metrics carry the op.* families the simulator uses *)
      let reg = Net.Cluster.metrics c in
      let table = Stats.Table.to_string (Obs.Metrics.table reg) in
      List.iter
        (fun needle ->
          if not (contains table needle) then
            Alcotest.failf "metric %s missing from:@.%s" needle table)
        [ "op.read.completed"; "op.read.rounds"; "op.write.completed" ])

(* ----- crash semantics --------------------------------------------------- *)

let reads_survive_crashed_minority () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.regular ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "a") in
      Net.Cluster.crash c 1;
      Alcotest.(check (list int)) "one down" [ 2; 3; 4 ] (Net.Cluster.alive c);
      let o = ok_exn "read with s1 down" (Live_ops.read e) in
      Alcotest.(check string) "value survives the crash" "a" (value_of o);
      (* writes too: the writer only ever waits for S - t acks *)
      let _ = ok_exn "write with s1 down" (Live_ops.write e "b") in
      let o = ok_exn "read sees it" (Live_ops.read e) in
      Alcotest.(check string) "newest value" "b" (value_of o))

let wiped_restart_is_tolerated () =
  (* a replica that loses its disk is just another failure the quorum
     absorbs: reads still return the last written value *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "keep") in
      Net.Cluster.crash c 2;
      Net.Cluster.restart_exn ~wipe:true c 2;
      let o = ok_exn "read after wiped restart" (Live_ops.read e) in
      Alcotest.(check string) "value survives the wipe" "keep" (value_of o))

(* ----- Byzantine-silent endpoint ----------------------------------------- *)

(* A listener that accepts connections and never answers a byte: the
   loudest kind of silence a Byzantine object can produce without
   forging.  Clients must complete operations without it. *)
let silent_listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 16;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = Atomic.make false in
  let conns = ref [] in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ fd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept fd with
              | c, _ -> conns := c :: !conns
              | exception Unix.Unix_error _ -> ())
        done)
      ()
  in
  let cleanup () =
    Atomic.set stop true;
    Thread.join t;
    List.iter (fun c -> try Unix.close c with Unix.Unix_error _ -> ()) !conns;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (Net.Endpoint.Tcp { host = "127.0.0.1"; port }, cleanup)

let byzantine_silent_endpoint () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let protocol = Net.Protocols.safe in
  let servers =
    List.init 3 (fun i ->
        Net.Server.start ~protocol ~cfg ~index:(i + 1)
          (Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 }))
  in
  let silent_ep, silent_cleanup = silent_listener () in
  Fun.protect
    ~finally:(fun () ->
      silent_cleanup ();
      List.iter Net.Server.stop servers)
    (fun () ->
      let endpoints =
        Array.of_list (List.map Net.Server.endpoint servers @ [ silent_ep ])
      in
      let writer = Live_ops.single ~session:"w" ~protocol ~cfg endpoints in
      let reader = Live_ops.single ~protocol ~cfg endpoints in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.Keyed.close writer;
          Net.Client.Keyed.close reader)
        (fun () ->
          let _ =
            ok_exn "write despite silent object"
              (Live_ops.run_one writer (Live_ops.write0 "loud"))
          in
          let o =
            ok_exn "read despite silent object"
              (Live_ops.run_one reader Live_ops.read0)
          in
          Alcotest.(check string) "correct value" "loud"
            (match o.value with Some v -> Core.Value.to_string v | None -> "?")))

(* ----- failure reporting ------------------------------------------------- *)

let too_many_failures_times_out () =
  (* crash beyond t: operations must fail with a clean timeout error,
     not hang or raise *)
  let opts = { Net.Client.deadline = 0.05; retries = 1; backoff = 0.01 } in
  let c = Net.Cluster.start ~opts ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "v") in
      Net.Cluster.crash c 1;
      Net.Cluster.crash c 2;
      (* quorum is S - t = 3; only 2 objects remain *)
      match Live_ops.read e with
      | Ok o -> Alcotest.failf "read completed (%s) with 2 of 4 objects" (value_of o)
      | Error msg ->
          Alcotest.(check bool) "error mentions the timeout" true
            (contains msg "timed out");
          (* the cluster recovers once the objects come back *)
          Net.Cluster.restart_exn c 1;
          Net.Cluster.restart_exn c 2;
          let o = ok_exn "read after recovery" (Live_ops.read e) in
          Alcotest.(check string) "resumed op still returns the value" "v"
            (value_of o))

(* ----- concurrency ------------------------------------------------------- *)

let concurrent_readers_are_safe () =
  let readers = 3 in
  let per_reader = 30 in
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let writer, engines = Net.Cluster.processes c ~readers in
      let _ = ok_exn "write" (Live_ops.write writer "w0") in
      let failures = Atomic.make 0 in
      let body j () =
        for _ = 1 to per_reader do
          match Live_ops.read engines.(j - 1) with
          | Ok _ -> ()
          | Error _ -> Atomic.incr failures
        done
      in
      let threads =
        List.init readers (fun j -> Thread.create (body (j + 1)) ())
      in
      (* writes race the reads from the main thread *)
      for i = 1 to 5 do
        match Live_ops.write writer (Printf.sprintf "w%d" i) with
        | Ok _ -> ()
        | Error _ -> Atomic.incr failures
      done;
      List.iter Thread.join threads;
      Alcotest.(check int) "no failed operations" 0 (Atomic.get failures);
      let history = Net.Cluster.history c in
      Alcotest.(check int) "all ops recorded"
        (1 + 5 + (readers * per_reader))
        (List.length history);
      Alcotest.(check bool) "concurrent live history is safe" true
        (Histories.Checks.is_safe ~equal:String.equal history))

(* ----- pipelined reads (ISSUE 5) ----------------------------------------- *)

let pipelined_chaos_zero_failures () =
  (* max_inflight = 16 across a server crash and restart, the crash
     landing mid-batch from another thread: every op must complete and
     the recorded history (with its real concurrency) must check out. *)
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Live_ops.write (Net.Cluster.engine c) "durable") in
      let lanes = Net.Cluster.engine ~lanes:16 c in
      let failures = ref 0 in
      let run n =
        Live_ops.reads lanes n
        |> Array.iteri (fun k -> function
             | Ok o ->
                 if value_of o <> "durable" then begin
                   incr failures;
                   Format.eprintf "pipelined read %d returned %s@." k
                     (value_of o)
                 end
             | Error e ->
                 incr failures;
                 Format.eprintf "pipelined read %d failed: %s@." k e)
      in
      let chaos =
        Thread.create
          (fun () ->
            Thread.delay 0.005;
            Net.Cluster.crash c 3;
            Thread.delay 0.05;
            Net.Cluster.restart_exn c 3)
          ()
      in
      run 600;
      Thread.join chaos;
      (* and a batch with the full quorum back *)
      run 100;
      Alcotest.(check int) "zero failed pipelined ops" 0 !failures;
      Alcotest.(check (list int)) "all servers back up" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      let history = Net.Cluster.history c in
      Alcotest.(check int) "ops recorded" 701 (List.length history);
      Alcotest.(check bool) "pipelined history safe" true
        (Histories.Checks.is_safe ~equal:String.equal history);
      Alcotest.(check bool) "pipelined history regular" true
        (Histories.Checks.is_regular ~equal:String.equal history);
      let reg = Net.Cluster.metrics c in
      let table = Stats.Table.to_string (Obs.Metrics.table reg) in
      List.iter
        (fun needle ->
          if not (contains table needle) then
            Alcotest.failf "metric %s missing from:@.%s" needle table)
        [
          "wire.batch_size";
          "net.client.batch_size";
          "net.client.flush_us";
          "op.read.completed";
        ])

let pipelined_byzantine_silent () =
  (* one Byzantine-silent endpoint, 16 ops in flight: the window must
     not let the mute object starve any of them *)
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let protocol = Net.Protocols.safe in
  let servers =
    List.init 3 (fun i ->
        Net.Server.start ~protocol ~cfg ~index:(i + 1)
          (Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 }))
  in
  let silent_ep, silent_cleanup = silent_listener () in
  Fun.protect
    ~finally:(fun () ->
      silent_cleanup ();
      List.iter Net.Server.stop servers)
    (fun () ->
      let endpoints =
        Array.of_list (List.map Net.Server.endpoint servers @ [ silent_ep ])
      in
      let writer = Live_ops.single ~session:"w" ~protocol ~cfg endpoints in
      let lanes =
        Live_ops.single ~readers:16 ~max_inflight:16 ~protocol ~cfg endpoints
      in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.Keyed.close writer;
          Net.Client.Keyed.close lanes)
        (fun () ->
          let _ =
            ok_exn "write despite silent object"
              (Live_ops.run_one writer (Live_ops.write0 "loud"))
          in
          let results =
            Net.Client.Keyed.run_ops lanes (Array.make 200 Live_ops.read0)
          in
          let failures = ref 0 in
          Array.iter
            (function
              | Ok o ->
                  if
                    (match o.Net.Client.value with
                    | Some v -> Core.Value.to_string v
                    | None -> "?")
                    <> "loud"
                  then incr failures
              | Error _ -> incr failures)
            results;
          Alcotest.(check int) "zero failed ops despite silent endpoint" 0
            !failures))

let pipelined_matches_serial () =
  (* same cluster, same value: reads pipelined across four lanes must
     return exactly what one-at-a-time reads return, op for op *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.regular ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "same") in
      let serial = List.init 20 (fun _ ->
          value_of (ok_exn "serial read" (Live_ops.read e)))
      in
      let piped =
        Live_ops.reads (Net.Cluster.engine ~lanes:4 c) 20
        |> Array.to_list
        |> List.map (fun r -> value_of (ok_exn "pipelined read" r))
      in
      Alcotest.(check (list string)) "pipelined values match serial" serial piped)

(* ----- poll event-loop server ------------------------------------------- *)

let poll_loop_cluster () =
  (* all four objects hosted by one select-driven worker domain, through
     crash/restart and pipelining *)
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "poll") in
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check string) "value over poll loop" "poll" (value_of o);
      Net.Cluster.crash c 2;
      Alcotest.(check (list int)) "one down" [ 1; 3; 4 ] (Net.Cluster.alive c);
      let o = ok_exn "read with s2 down" (Live_ops.read e) in
      Alcotest.(check string) "quorum absorbs the crash" "poll" (value_of o);
      Net.Cluster.restart_exn c 2;
      Alcotest.(check (list int)) "all back" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      let failures = ref 0 in
      Live_ops.reads (Net.Cluster.engine ~lanes:8 c) 200
      |> Array.iter (function
           | Ok o -> if value_of o <> "poll" then incr failures
           | Error _ -> incr failures);
      Alcotest.(check int) "pipelined over poll loop: zero failures" 0
        !failures;
      Alcotest.(check bool) "history safe" true
        (Histories.Checks.is_safe ~equal:String.equal (Net.Cluster.history c)))

(* ----- TCP transport ----------------------------------------------------- *)

let tcp_transport_works () =
  let c =
    Net.Cluster.start ~transport:`Tcp ~protocol:Net.Protocols.abd ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "tcp") in
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check string) "value over tcp" "tcp" (value_of o))

(* ----- the record outlives the cluster --------------------------------- *)

(* [stop] closes the engines but keeps them: the histories, spans and
   merged registry read the same before and after it. *)
let stopped_cluster_keeps_records () =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  let e = Net.Cluster.engine c in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Live_ops.write e "kept") in
      ignore (ok_exn "read" (Live_ops.read e)));
  let completed what =
    Obs.Metrics.counter_value (Net.Cluster.metrics c)
      ("op." ^ what ^ ".completed")
  in
  Alcotest.(check int) "reads completed" 1 (completed "read");
  Alcotest.(check int) "writes completed" 1 (completed "write");
  Alcotest.(check int) "spans" 2 (List.length (Net.Cluster.spans c));
  Alcotest.(check int) "history" 2 (List.length (Net.Cluster.history c))

(* ----- the non-blocking engine ------------------------------------------ *)

(* An op's value and rounds, or the failure. *)
let result_view = function
  | Ok (o : Net.Client.outcome) ->
      Ok (Option.map Core.Value.to_string o.value, o.rounds)
  | Error e -> Error e

(* Each key's ops in invocation order: kind, value and rounds. *)
let history_view histories =
  List.map
    (fun (key, ops) ->
      ( key,
        List.map
          (fun (op : string Histories.Op.t) ->
            match op.action with
            | Write { value; _ } -> ("w", Some value, op.rounds)
            | Read { result = Some (Value v); _ } -> ("r", Some v, op.rounds)
            | Read _ -> ("r", None, op.rounds))
          ops ))
    histories

(* The same ops through [run] on one cluster and through [submit] and
   [drive] (which polls) on its twin.  The reads are of keys written before, the writes of
   keys no op reads, so no result depends on how the ops interleave. *)
let run_matches_submit_poll () =
  let map = Shard.Map.make_exn ~keys:8 ~fleet:4 ~cfg:cfg4 () in
  let write key v = Net.Client.Keyed.Write { key; value = Core.Value.v v } in
  let setup = Array.init 4 (fun key -> write key (Printf.sprintf "k%d" key)) in
  let ops =
    Array.init 30 (fun i ->
        if i mod 3 = 2 then write (4 + (i mod 4)) (Printf.sprintf "w%d" i)
        else Net.Client.Keyed.Read { key = i mod 4 })
  in
  let twin go =
    let c = Net.Cluster.start ~map ~protocol:Net.Protocols.abd ~cfg:cfg4 () in
    Fun.protect
      ~finally:(fun () -> Net.Cluster.stop c)
      (fun () ->
        let e = Net.Cluster.engine ~lanes:4 c in
        Array.iter (fun r -> ignore (ok_exn "setup" r)) (Net.Cluster.run e setup);
        let results = go c e in
        (Array.map result_view results, history_view (Net.Cluster.keyed_histories c)))
  in
  let ran, ran_h = twin (fun _ e -> Net.Cluster.run e ops) in
  let polled, polled_h =
    twin (fun c e ->
        let outcomes = Hashtbl.create 32 in
        let on_event = function
          | Net.Client.Keyed.Respond { op; outcome; _ } ->
              Hashtbl.replace outcomes op outcome
          | Net.Client.Keyed.Invoke _ -> ()
        in
        let numbers = Array.map (Net.Cluster.submit e) ops in
        Net.Cluster.drive c [ (e, on_event) ] [];
        Array.map (Hashtbl.find outcomes) numbers)
  in
  let results = Alcotest.(array (result (pair (option string) int) string)) in
  Alcotest.check results "same results" ran polled;
  Array.iter (fun r -> ignore (ok_exn "op" r)) ran;
  let histories =
    Alcotest.(list (pair int (list (triple string (option string) (option int)))))
  in
  Alcotest.check histories "same per-key histories" ran_h polled_h;
  Alcotest.(check int) "every key" 8 (List.length ran_h)

(* One poll drives the writer's and a reader's engines: their ops race,
   all complete under their own process's name, and the history passes
   the judge. *)
let one_poll_races_two_processes () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.regular ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let writer, readers = Net.Cluster.processes c ~readers:1 in
      let reader = readers.(0) in
      let seen = ref [] in
      let on_event = function
        | Net.Client.Keyed.Respond { write; reader; outcome; span; _ } ->
            ignore (ok_exn "raced op" outcome);
            let proc = Option.map (fun (s : Obs.Span.t) -> s.proc) span in
            seen := (write, reader, proc) :: !seen
        | Net.Client.Keyed.Invoke _ -> ()
      in
      for i = 1 to 20 do
        ignore (Net.Cluster.submit writer (Live_ops.write0 (Printf.sprintf "v%d" i)))
      done;
      for _ = 1 to 40 do
        ignore (Net.Cluster.submit reader Live_ops.read0)
      done;
      Net.Cluster.drive c [ (writer, on_event); (reader, on_event) ] [];
      let count x = List.length (List.filter (( = ) x) !seen) in
      Alcotest.(check int) "writes by w" 20 (count (true, 0, Some "w"));
      Alcotest.(check int) "reads by r1" 40 (count (false, 1, Some "r1"));
      let h = Net.Cluster.history c in
      Alcotest.(check bool)
        "the first write and the first read overlap" true
        (Histories.Op.concurrent
           (List.find Histories.Op.is_write h)
           (List.find Histories.Op.is_read h));
      let verdict =
        Fault.Campaign.judge Regular ~quiescent:true ~completed:60 ~total:60
          (Net.Cluster.keyed_histories c)
      in
      Alcotest.(check int) "judged clean" 0 (Fault.Campaign.breaches verdict);
      Alcotest.(check int) "every op checked" 60 verdict.checked)

(* A read submitted while its key's read lane is busy starts once that
   round has responded, and is invoked then, not when submitted. *)
let queued_op_invokes_when_it_starts () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      (* every reply waits 50 ms, so the first read is still in flight
         1 ms after it was submitted *)
      let slow =
        {
          Net.Chaos.dir = To_client;
          sender = None;
          from_us = 0;
          until_us = max_int;
          act = Delay 50_000;
        }
      in
      for i = 1 to 4 do
        Net.Cluster.set_rules c i [ slow ]
      done;
      let e = Net.Cluster.engine ~inflight:2 c in
      let events = ref [] and first = ref (-1) and second = ref (-1) in
      let on_event ev = events := ev :: !events in
      let t0 = Net.Cluster.now_us c in
      Net.Cluster.drive c
        [ (e, on_event) ]
        [
          (t0, fun () -> first := Net.Cluster.submit e Live_ops.read0);
          ( t0 + 1_000,
            fun () ->
              (match !events with
              | [ Net.Client.Keyed.Invoke { op; _ } ] when op = !first -> ()
              | _ -> Alcotest.fail "the first read is in flight");
              second := Net.Cluster.submit e Live_ops.read0 );
        ];
      let first = !first and second = !second in
      (match List.rev !events with
      | [
       Invoke { op = a; _ };
       Respond { op = a'; at_us = responded; _ };
       Invoke { op = b; at_us = invoked; _ };
       Respond { op = b'; _ };
      ]
        when a = first && a' = first && b = second && b' = second ->
          Alcotest.(check bool)
            "invoked once the first responded" true (invoked >= responded)
      | _ -> Alcotest.fail "the second read starts after the first responds");
      match Net.Cluster.history c with
      | [ a; b ] ->
          Alcotest.(check bool) "recorded in sequence" true
            (Histories.Op.precedes a b)
      | _ -> Alcotest.fail "two reads recorded")

(* An engine meters its own flushes as [net.client.*]; the servers'
   [wire.batch_size] and [wire.bytes_per_frame] are theirs alone. *)
let engine_meters_its_own_flushes () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let reg = Obs.Metrics.create () in
      let k =
        Live_ops.single ~metrics:reg ~protocol:Net.Protocols.safe ~cfg:cfg4
          (Net.Cluster.endpoints c)
      in
      ignore (ok_exn "write" (Live_ops.run_one k (Live_ops.write0 "own")));
      ignore (ok_exn "read" (Live_ops.run_one k Live_ops.read0));
      Net.Client.Keyed.close k;
      let count name =
        Option.map Obs.Metrics.Histogram.count (Obs.Metrics.find_histogram reg name)
      in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " observed") true
            (Option.value (count name) ~default:0 > 0))
        [ "net.client.batch_size"; "net.client.bytes_per_frame" ];
      List.iter
        (fun name -> Alcotest.(check (option int)) (name ^ " absent") None (count name))
        [ "wire.batch_size"; "wire.bytes_per_frame"; "wire.flush_us" ])

let suite =
  ( "net",
    [
      Alcotest.test_case "write/read round-trips on every protocol" `Quick
        roundtrip_all_protocols;
      Alcotest.test_case "safe READ is fast (one round) live" `Quick
        fast_read_is_one_round;
      Alcotest.test_case "1000 READs across a crash and restart" `Slow
        acceptance_1000_reads;
      Alcotest.test_case "reads and writes survive a crashed minority" `Quick
        reads_survive_crashed_minority;
      Alcotest.test_case "wiped restart is absorbed by the quorum" `Quick
        wiped_restart_is_tolerated;
      Alcotest.test_case "Byzantine-silent endpoint cannot block ops" `Quick
        byzantine_silent_endpoint;
      Alcotest.test_case "crashes beyond t time out cleanly and recover" `Quick
        too_many_failures_times_out;
      Alcotest.test_case "concurrent readers over live sockets stay safe" `Quick
        concurrent_readers_are_safe;
      Alcotest.test_case "TCP loopback transport" `Quick tcp_transport_works;
      Alcotest.test_case "pipelined reads under chaos (inflight=16)" `Slow
        pipelined_chaos_zero_failures;
      Alcotest.test_case "pipelined reads with Byzantine-silent endpoint"
        `Quick pipelined_byzantine_silent;
      Alcotest.test_case "pipelined results match serial" `Quick
        pipelined_matches_serial;
      Alcotest.test_case "poll event-loop server mode" `Quick poll_loop_cluster;
      Alcotest.test_case "reply rounds match request rounds on every protocol"
        `Quick reply_rounds_match_requests;
      Alcotest.test_case "replies answer only their own request" `Quick
        replies_answer_only_their_request;
      Alcotest.test_case "a stopped cluster keeps its engines' records" `Quick
        stopped_cluster_keeps_records;
      Alcotest.test_case "submit and poll give what run gives" `Quick
        run_matches_submit_poll;
      Alcotest.test_case "one poll races the writer and a reader" `Quick
        one_poll_races_two_processes;
      Alcotest.test_case "a queued op is invoked when it starts" `Quick
        queued_op_invokes_when_it_starts;
      Alcotest.test_case "an engine meters its flushes as net.client" `Quick
        engine_meters_its_own_flushes;
    ] )
