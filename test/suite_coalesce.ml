(* Read coalescing (ISSUE 10): hot-key reads sharing one quorum round.

   Four angles, matching the design's obligations:

   - the batch structure's algebra (width bounds, join order, the
     close-means-no-more-joins rule) under random join/close schedules;
   - a live qcheck property: random hot-keyspace schedules driven with
     coalescing ON through a real loopback cluster still yield per-key
     histories that pass the paper's safety AND regularity checkers —
     join-before-broadcast is exactly why;
   - chaos: a server crash in the middle of a coalesced hot-key run
     must not fail any op (a batch is one quorum round; the lead's
     retransmit machinery carries every member) nor admit a violation;
   - golden structure: a width-k batch completes k logical ops (k
     spans, k results, k history entries) but initiates ONE round —
     one span with replies, k-1 with none. *)

let cfg3 = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0

let cfg4 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* ----- batch algebra ------------------------------------------------------ *)

let gen_batch_schedule =
  QCheck.Gen.(
    map3
      (fun cap attempts close_at -> (cap, attempts, close_at))
      (int_range (-2) 64) (int_range 0 100) (int_range 0 100))

let arb_batch_schedule =
  QCheck.make
    ~print:(fun (cap, attempts, close_at) ->
      Printf.sprintf "cap=%d attempts=%d close_at=%d" cap attempts close_at)
    gen_batch_schedule

let batch_algebra =
  QCheck.Test.make
    ~name:"batch: width <= cap, join order kept, closed means no joins"
    ~count:500 arb_batch_schedule (fun (cap, attempts, close_at) ->
      let b = Core.Coalesce.create ~cap in
      let eff_cap = Stdlib.max 1 cap in
      let ok = ref (Core.Coalesce.cap b = eff_cap && Core.Coalesce.width b = 1) in
      let accepted = ref [] in
      for i = 0 to attempts - 1 do
        if i = close_at then Core.Coalesce.close b;
        let open_before = Core.Coalesce.is_open b in
        let width_before = Core.Coalesce.width b in
        let joined = Core.Coalesce.try_join b i in
        (* try_join succeeds exactly when open and below cap *)
        if joined <> (open_before && width_before < eff_cap) then ok := false;
        if joined then accepted := i :: !accepted
        else begin
          (* and join must refuse precisely the same schedules *)
          match Core.Coalesce.join b i with
          | () -> ok := false
          | exception Invalid_argument _ -> ()
        end
      done;
      if attempts > close_at && Core.Coalesce.is_open b then ok := false;
      let accepted = List.rev !accepted in
      !ok
      && Core.Coalesce.width b = 1 + List.length accepted
      && Core.Coalesce.width b <= eff_cap
      && Core.Coalesce.joiners b = accepted
      &&
      (* iter_joiners agrees with the list, in order *)
      let seen = ref [] in
      Core.Coalesce.iter_joiners (fun x -> seen := x :: !seen) b;
      List.rev !seen = accepted)

let batch_close_is_idempotent () =
  let b = Core.Coalesce.create ~cap:4 in
  Core.Coalesce.join b 1;
  Core.Coalesce.close b;
  Core.Coalesce.close b;
  Alcotest.(check bool) "closed" false (Core.Coalesce.is_open b);
  Alcotest.(check bool) "no joins after close" false (Core.Coalesce.try_join b 2);
  Alcotest.(check int) "width survives close" 2 (Core.Coalesce.width b)

(* ----- live qcheck: coalesced schedules stay regular ---------------------- *)

(* Random hot-keyspace schedules through one shared loopback cluster,
   coalescing ON.  Every case gets a disjoint key range (so per-key
   histories never mix write values across cases) and every sampled
   key's history must pass the single-register safety and regularity
   checkers.  regular-gc at S = 3 = 2t+2b+1 also keeps the fast-read
   path in play, so batches ride one-round reads where admissible. *)
let coalesced_schedules_are_regular () =
  let c =
    Net.Cluster.start
      ~map:(Shard.Map.make_exn ~keys:16384 ~fleet:3 ~cfg:cfg3 ())
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg:cfg3 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let case = ref 0 in
      let gen =
        QCheck.Gen.(
          map3
            (fun keys skew (coalesce, seed) -> (keys, skew, coalesce, seed))
            (int_range 1 6)
            (oneofl [ 0.0; 0.99; 1.5 ])
            (pair (int_range 2 8) (int_range 0 1000)))
      in
      let arb =
        QCheck.make
          ~print:(fun (keys, skew, coalesce, seed) ->
            Printf.sprintf "keys=%d skew=%g coalesce=%d seed=%d" keys skew
              coalesce seed)
          gen
      in
      let prop (keys, skew, coalesce, seed) =
        let base = 8 * !case in
        incr case;
        let wgen =
          Workload.Keyspace.make_exn ~skew ~write_ratio:0.3 ~keys ~seed ()
        in
        let kops =
          Array.map
            (fun op ->
              match op with
              | Workload.Keyspace.Read { key } ->
                  Net.Client.Keyed.Read { key = base + key }
              | Workload.Keyspace.Write { key; value } ->
                  Net.Client.Keyed.Write { key = base + key; value })
            (Workload.Keyspace.ops wgen 60)
        in
        let results =
          Net.Cluster.run (Net.Cluster.engine ~inflight:32 ~coalesce c) kops
        in
        Array.for_all (function Ok _ -> true | Error _ -> false) results
        && List.for_all
             (fun (key, h) ->
               key < base
               || (Histories.Checks.is_safe ~equal:String.equal h
                  && Histories.Checks.is_regular ~equal:String.equal h))
             (Net.Cluster.keyed_histories c)
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~name:"coalesced keyed schedules" ~count:10 arb prop);
      (* the schedules above must actually have exercised coalescing *)
      let m = Net.Cluster.metrics c in
      Alcotest.(check bool) "some reads coalesced" true
        (Obs.Metrics.counter_value m "op.coalesced_reads" > 0))

(* ----- chaos: crash mid-coalesced-batch ----------------------------------- *)

let crash_mid_coalesced_run () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.5; retries = 8; backoff = 0.01 }
      ~map:(Shard.Map.make_exn ~keys:4 ~fleet:4 ~cfg:cfg4 ())
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let wgen =
        Workload.Keyspace.make_exn ~skew:1.2 ~write_ratio:0.1 ~keys:4 ~seed:7
          ()
      in
      let kops =
        Array.map
          (fun op ->
            match op with
            | Workload.Keyspace.Read { key } -> Net.Client.Keyed.Read { key }
            | Workload.Keyspace.Write { key; value } ->
                Net.Client.Keyed.Write { key; value })
          (Workload.Keyspace.ops wgen 200)
      in
      (* Kill a server while the coalesced hot-key window is in flight;
         t = 1, so the lead rounds retransmit around the hole and every
         batch member must still complete. *)
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.02;
            Net.Cluster.crash c 3)
          ()
      in
      let results =
        Net.Cluster.run
          (Net.Cluster.engine ~inflight:32 ~coalesce:16 c)
          kops
      in
      Thread.join killer;
      let failures =
        Array.to_list results
        |> List.filter_map (function Ok _ -> None | Error e -> Some e)
      in
      Alcotest.(check (list string)) "no failed ops across the crash" []
        failures;
      ok_exn "restart after run"
        (Result.map_error
           (fun _ -> "still alive")
           (Net.Cluster.restart c 3));
      List.iter
        (fun (key, h) ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is safe" key)
            true
            (Histories.Checks.is_safe ~equal:String.equal h);
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is regular" key)
            true
            (Histories.Checks.is_regular ~equal:String.equal h))
        (Net.Cluster.keyed_histories c);
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c);
      let m = Net.Cluster.metrics c in
      Alcotest.(check bool) "coalescing engaged across the crash" true
        (Obs.Metrics.counter_value m "op.coalesced_reads" > 0))

(* ----- golden structure: width-k batch = k ops, 1 round ------------------- *)

let fresh_tmpdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "coalesce-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let start_group ~protocol ~cfg () =
  let dir = fresh_tmpdir () in
  let endpoints =
    Array.init cfg.Quorum.Config.s (fun i ->
        Net.Endpoint.Unix_sock
          (Filename.concat dir (Printf.sprintf "obj%d.sock" (i + 1))))
  in
  let servers = Net.Server.start_group ~domains:1 ~protocol ~cfg endpoints in
  (servers, Array.map Net.Server.endpoint servers)

let read_spans spans =
  List.filter
    (fun (s : Obs.Span.t) ->
      match s.Obs.Span.kind with Obs.Span.Read _ -> true | Obs.Span.Write -> false)
    spans

(* One write, then 5 same-key reads admitted in one pump sweep with
   cap >= 5: the first leads, the other 4 join.  Five logical ops
   complete — 5 results, 5 spans, the per-op metrics — but only ONE
   round hits the wire: one read span heard replies, the joiners heard
   none and initiated no round of their own. *)
let keyed_width5_batch_structure () =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let servers, endpoints = start_group ~protocol ~cfg:cfg3 () in
  Fun.protect
    ~finally:(fun () -> Array.iter Net.Server.stop servers)
    (fun () ->
      let map = Shard.Map.make_exn ~keys:4 ~fleet:3 ~cfg:cfg3 () in
      let registry = Obs.Metrics.create () in
      let keyed =
        Net.Client.Keyed.connect ~metrics:registry ~max_inflight:16 ~reader:1
          ~coalesce:8 ~protocol ~map endpoints
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close keyed)
        (fun () ->
          let seed =
            Net.Client.Keyed.run_ops keyed
              [| Net.Client.Keyed.Write { key = 0; value = Core.Value.v "v0" } |]
          in
          ignore (ok_exn "seed write" seed.(0));
          let joined_invokes = ref 0 and joined_responds = ref 0 in
          let spans = ref [] in
          let on_event = function
            | Net.Client.Keyed.Invoke { joined; _ } ->
                if joined then incr joined_invokes
            | Net.Client.Keyed.Respond { joined; span; _ } ->
                if joined then incr joined_responds;
                Option.iter (fun s -> spans := s :: !spans) span
          in
          let results =
            Net.Client.Keyed.run_ops ~on_event keyed
              (Array.init 5 (fun _ -> Net.Client.Keyed.Read { key = 0 }))
          in
          Array.iteri
            (fun i r ->
              let o = ok_exn (Printf.sprintf "read %d" i) r in
              match o.Net.Client.value with
              | Some v ->
                  Alcotest.(check string)
                    (Printf.sprintf "read %d value" i)
                    "v0" (Core.Value.to_string v)
              | None -> Alcotest.failf "read %d returned no value" i)
            results;
          Alcotest.(check int) "4 joined invokes" 4 !joined_invokes;
          Alcotest.(check int) "4 joined responds" 4 !joined_responds;
          Alcotest.(check int) "op.coalesced_reads" 4
            (Obs.Metrics.counter_value registry "op.coalesced_reads");
          (match Obs.Metrics.find_histogram registry "op.coalesce_width" with
          | None -> Alcotest.fail "op.coalesce_width histogram absent"
          | Some h ->
              Alcotest.(check int) "width observed once per member" 5
                (Obs.Metrics.Histogram.count h);
              Alcotest.(check bool) "width p50 above the lone-read bucket" true
                (Obs.Metrics.Histogram.quantile h 50. > 1.0));
          let reads = read_spans !spans in
          Alcotest.(check int) "5 read spans" 5 (List.length reads);
          List.iter
            (fun (s : Obs.Span.t) ->
              Alcotest.(check bool) "span completed" true (Obs.Span.completed s))
            reads;
          let leads, joiners =
            List.partition (fun (s : Obs.Span.t) -> s.Obs.Span.replies > 0) reads
          in
          Alcotest.(check int) "exactly one span heard replies" 1
            (List.length leads);
          List.iter
            (fun (s : Obs.Span.t) ->
              Alcotest.(check int)
                "joiner initiated no round of its own" 1 s.Obs.Span.rounds;
              Alcotest.(check (option int))
                "joiner reports the lead's round count"
                (List.hd leads).Obs.Span.reported_rounds
                s.Obs.Span.reported_rounds)
            joiners;
          (* cap 1 (the default) must leave no coalescing trace at all *)
          let reg_off = Obs.Metrics.create () in
          let off =
            Net.Client.Keyed.connect ~metrics:reg_off ~max_inflight:16
              ~reader:2 ~protocol ~map endpoints
          in
          Fun.protect
            ~finally:(fun () -> Net.Client.Keyed.close off)
            (fun () ->
              let joined = ref 0 in
              let on_event = function
                | Net.Client.Keyed.Invoke { joined = true; _ }
                | Net.Client.Keyed.Respond { joined = true; _ } ->
                    incr joined
                | _ -> ()
              in
              let results =
                Net.Client.Keyed.run_ops ~on_event off
                  (Array.init 3 (fun _ -> Net.Client.Keyed.Read { key = 0 }))
              in
              Array.iteri
                (fun i r -> ignore (ok_exn (Printf.sprintf "off read %d" i) r))
                results;
              Alcotest.(check int) "no joined events when off" 0 !joined;
              Alcotest.(check int) "no coalesced reads when off" 0
                (Obs.Metrics.counter_value reg_off "op.coalesced_reads");
              Alcotest.(check bool) "no width histogram when off" true
                (Obs.Metrics.find_histogram reg_off "op.coalesce_width" = None))))

(* One reader lane, window 1, cap 8 — joining is the only way 8 reads
   can be admitted in one sweep, and joined reads must not count against
   max_inflight. *)
let lane_width8_batch_structure () =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let servers, endpoints = start_group ~protocol ~cfg:cfg3 () in
  Fun.protect
    ~finally:(fun () -> Array.iter Net.Server.stop servers)
    (fun () ->
      let w = Live_ops.single ~session:"w" ~protocol ~cfg:cfg3 endpoints in
      (match Live_ops.run_one w (Live_ops.write0 "m0") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed write failed: %s" e);
      Net.Client.Keyed.close w;
      let registry = Obs.Metrics.create () in
      let client =
        Net.Client.Keyed.connect ~metrics:registry ~max_inflight:1 ~reader:2
          ~coalesce:8 ~protocol ~map:(Shard.Map.single cfg3) endpoints
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close client)
        (fun () ->
          let joins = ref 0 and spans = ref [] in
          let on_event = function
            | Net.Client.Keyed.Respond { joined; span; _ } ->
                if joined then incr joins;
                Option.iter (fun s -> spans := s :: !spans) span
            | Net.Client.Keyed.Invoke _ -> ()
          in
          let results =
            Net.Client.Keyed.run_ops ~on_event client
              (Array.make 8 (Net.Client.Keyed.Read { key = 0 }))
          in
          Array.iteri
            (fun i r ->
              let o = ok_exn (Printf.sprintf "read %d" i) r in
              match o.Net.Client.value with
              | Some v ->
                  Alcotest.(check string)
                    (Printf.sprintf "read %d value" i)
                    "m0" (Core.Value.to_string v)
              | None -> Alcotest.failf "read %d returned no value" i)
            results;
          Alcotest.(check int) "7 joined responds" 7 !joins;
          Alcotest.(check int) "op.coalesced_reads" 7
            (Obs.Metrics.counter_value registry "op.coalesced_reads");
          (match Obs.Metrics.find_histogram registry "op.coalesce_width" with
          | None -> Alcotest.fail "op.coalesce_width histogram absent"
          | Some h ->
              Alcotest.(check int) "width observed once per member" 8
                (Obs.Metrics.Histogram.count h);
              Alcotest.(check bool) "width p50 above the lone-read bucket" true
                (Obs.Metrics.Histogram.quantile h 50. > 1.0));
          let reads = read_spans !spans in
          Alcotest.(check int) "8 read spans" 8 (List.length reads);
          let leads, joiners =
            List.partition (fun (s : Obs.Span.t) -> s.Obs.Span.replies > 0) reads
          in
          Alcotest.(check int) "exactly one span heard replies" 1
            (List.length leads);
          List.iter
            (fun (s : Obs.Span.t) ->
              Alcotest.(check int)
                "joiner initiated no round of its own" 1 s.Obs.Span.rounds)
            joiners))

let suite =
  ( "coalesce",
    [
      QCheck_alcotest.to_alcotest batch_algebra;
      Alcotest.test_case "batch close is idempotent" `Quick
        batch_close_is_idempotent;
      Alcotest.test_case "coalesced schedules stay regular (live qcheck)"
        `Quick coalesced_schedules_are_regular;
      Alcotest.test_case "crash mid-coalesced hot-key run" `Quick
        crash_mid_coalesced_run;
      Alcotest.test_case "keyed width-5 batch: 5 ops, 1 round" `Quick
        keyed_width5_batch_structure;
      Alcotest.test_case "mux width-8 batch: 8 ops, 1 round" `Quick
        lane_width8_batch_structure;
    ] )
