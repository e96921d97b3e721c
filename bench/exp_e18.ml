(* E18 -- multi-domain event-loop scale-out: ops/s vs worker domains.

   E15 established that a single poll domain saturates once enough
   operations are in flight; E18 measures what sharding the same server
   across N worker domains buys.  The server group (Server.start_group)
   partitions base objects -- and every connection accepted for them --
   across N domains (object i is owned by domain (i-1) mod N), so the
   read/decode/step/encode/flush path is domain-local and the only
   cross-domain traffic is the acceptor's connection handoff.

   Load comes from E18_CLIENTS in-process client domains, each driving
   its own pipelined client (disjoint reader-id ranges, E18_INFLIGHT ops in
   flight) against the shared group; all client domains start each
   timed pass on an atomic barrier.  For each domain count:

   1. throughput: total ops/s across client domains (the cell's wall is
      the slowest domain's) and per-op latency p50/p99;
   2. correctness: every op must return the seeded value; client domain
      0's operations plus the seeding write are recorded in a history
      and must pass the safety and regularity checkers (the sampled
      subset -- recording every domain would serialize them on the
      recorder lock and distort the measurement);
   3. wire efficiency: the merged per-object server registries must show
      wire.batch_size p50 > 1 (scale-out must not destroy coalescing);
   4. partitioning: Server.partition_violations must stay 0 (no base
      object stepped outside its owning domain).

   Speedup verdicts compare the best trial at each domain count.  True
   parallel speedup needs real cores: the artifact records "cores"
   (Domain.recommended_domain_count) so a 1-core container's flat curve
   reads as what it is -- on such hosts the scaling booleans are
   expected false and the run is still a correctness pass.

   One JSON artifact: BENCH_e18.json.  Environment-tunable:
     E18_OPS       (2000)          reads per client domain per cell
     E18_DOMAINS   (1,2,4,8)       worker-domain sweep
     E18_CLIENTS   (4)             client load domains
     E18_INFLIGHT  (16)            operation window per client domain
     E18_TRIALS    (3)             trials per cell; best is reported
     E18_TRANSPORT (unix)          loopback transport: unix | tcp
     E18_OUT       (BENCH_e18.json) output path *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf "%s expects a positive integer (got %S)\n" name s;
          exit 2)
  | None -> default

let domain_levels () =
  match Sys.getenv_opt "E18_DOMAINS" with
  | None -> [ 1; 2; 4; 8 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some n when n >= 1 -> n
             | _ ->
                 Printf.eprintf "E18_DOMAINS: cannot parse %S\n" s;
                 exit 2)

let transport () =
  match Sys.getenv_opt "E18_TRANSPORT" with
  | None -> `Unix
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "E18_TRANSPORT expects tcp or unix (got %S)\n" s;
          exit 2)

let fresh_tmpdir () =
  let path = Filename.temp_file "e18" "" in
  Unix.unlink path;
  Unix.mkdir path 0o700;
  path

let summary_json buf label (s : Stats.Summary.t) =
  Printf.bprintf buf
    "\"%s\": { \"count\": %d, \"p50_us\": %.0f, \"p99_us\": %.0f, \
     \"mean_us\": %.1f, \"max_us\": %.0f }"
    label (Stats.Summary.count s)
    (Stats.Summary.percentile s 50.)
    (Stats.Summary.percentile s 99.)
    (Stats.Summary.mean s) (Stats.Summary.max s)

(* One measured pass: every client domain spins on the barrier, then
   runs [ops] reads through its own client; the cell's wall-clock is the
   slowest domain's (they started together). *)
let timed_pass ~clients ~ops ~on_event0 =
  let n = Array.length clients in
  let reads = Array.make ops (Net.Client.Keyed.Read { key = 0 }) in
  let barrier = Atomic.make 0 in
  let body c () =
    Atomic.incr barrier;
    while Atomic.get barrier < n do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    let results =
      if c = 0 then
        Net.Client.Keyed.run_ops ~on_event:on_event0 clients.(c) reads
      else Net.Client.Keyed.run_ops clients.(c) reads
    in
    (Unix.gettimeofday () -. t0, results)
  in
  let doms = Array.init n (fun c -> Domain.spawn (body c)) in
  Array.map Domain.join doms

let run () =
  let ops = getenv_int "E18_OPS" 2000 in
  let clients = getenv_int "E18_CLIENTS" 4 in
  let inflight = getenv_int "E18_INFLIGHT" 16 in
  let trials = getenv_int "E18_TRIALS" 3 in
  let out = Option.value (Sys.getenv_opt "E18_OUT") ~default:"BENCH_e18.json" in
  let levels = domain_levels () in
  let transport = transport () in
  let transport_name = match transport with `Tcp -> "tcp" | `Unix -> "unix" in
  let protocol = Net.Protocols.safe in
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  let s = cfg.Quorum.Config.s in
  let cores = Domain.recommended_domain_count () in
  let total_ops = clients * ops in
  Exp_common.note
    "E18: multi-domain scale-out (%d cores; domains in {%s}; %d client \
     domains x window %d x %d ops; best of %d; %s loopback)"
    cores
    (String.concat "," (List.map string_of_int levels))
    clients inflight ops trials transport_name;
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e18\",\n  \"transport\": \"%s\",\n  \
     \"protocol\": \"%s\",\n  \"s\": %d, \"t\": 1, \"b\": 0,\n  \"cores\": \
     %d,\n  \"clients\": %d,\n  \"inflight\": %d,\n  \"ops_per_client\": \
     %d,\n  \"trials\": %d,\n  \"cells\": [\n"
    transport_name
    (Net.Protocols.name protocol)
    s cores clients inflight ops trials;
  let rates = Hashtbl.create 8 in
  let violations_total = ref 0 in
  let partition_total = ref 0 in
  let batch_ok_all = ref true in
  List.iteri
    (fun li nd ->
      let dir = fresh_tmpdir () in
      let endpoints =
        match transport with
        | `Unix ->
            Array.init s (fun i ->
                Net.Endpoint.Unix_sock
                  (Filename.concat dir (Printf.sprintf "obj%d.sock" (i + 1))))
        | `Tcp ->
            Array.init s (fun _ ->
                Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
      in
      let registries = Array.init s (fun _ -> Obs.Metrics.create ()) in
      let servers =
        Net.Server.start_group
          ~metrics:(fun i -> registries.(i))
          ~domains:nd ~protocol ~cfg endpoints
      in
      let actual = Array.map Net.Server.endpoint servers in
      (* Shared microsecond clock: history stamps from the writer and
         from client domain 0 must be mutually ordered. *)
      let origin = Unix.gettimeofday () in
      let now_us () = int_of_float ((Unix.gettimeofday () -. origin) *. 1e6) in
      let recorder = Histories.Recorder.create () in
      let rec_mutex = Mutex.create () in
      (* Seed one write so every read returns a real value. *)
      let writer =
        Net.Client.connect ~now_us ~protocol ~cfg ~role:`Writer actual
      in
      let wh = Histories.Recorder.invoke_write recorder ~time:(now_us ()) "e18" in
      (match Net.Client.write writer (Core.Value.v "e18") with
      | Ok _ -> Histories.Recorder.respond_write recorder wh ~time:(now_us ())
      | Error e ->
          Printf.eprintf "E18: seed write failed: %s\n" e;
          exit 1);
      Net.Client.close writer;
      (* One client per client domain, created once per cell: reader ids
         stay unique for the group's lifetime (base objects keep
         per-reader round state) and trials after the first run warm. *)
      let map = Shard.Map.single cfg in
      let clients =
        Array.init clients (fun c ->
            Net.Client.Keyed.connect ~now_us ~max_inflight:inflight
              ~reader:(1 + (c * inflight)) ~readers:inflight ~protocol ~map
              actual)
      in
      (* Domain 0's ops feed the history; resumed (timed-out) ops keep
         their original invocation, exactly like Cluster.read_pipelined. *)
      let open_ops = Array.make inflight None in
      let on_event0 ev =
        Mutex.lock rec_mutex;
        (try
           (match ev with
           | Net.Client.Keyed.Invoke { reader; at_us; _ } -> (
               match open_ops.(reader - 1) with
               | Some _ -> ()
               | None ->
                   open_ops.(reader - 1) <-
                     Some
                       (Histories.Recorder.invoke_read recorder ~time:at_us
                          ~reader))
           | Net.Client.Keyed.Respond { reader; at_us; outcome; _ } -> (
               match outcome with
               | Error _ -> ()
               | Ok o -> (
                   match open_ops.(reader - 1) with
                   | None -> ()
                   | Some h ->
                       open_ops.(reader - 1) <- None;
                       let result =
                         match o.Net.Client.value with
                         | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                         | Some (Core.Value.V v) -> Histories.Op.Value v
                       in
                       Histories.Recorder.respond_read recorder h ~time:at_us
                         result)))
         with e ->
           Mutex.unlock rec_mutex;
           raise e);
        Mutex.unlock rec_mutex
      in
      (* untimed warmup: connections, hellos, first automaton steps *)
      ignore
        (timed_pass ~clients ~ops:(Stdlib.min 200 ops)
           ~on_event0:(fun _ -> ()));
      let failures = ref 0 in
      let mismatches = ref 0 in
      let best = ref None in
      for trial = 1 to trials do
        let passes = timed_pass ~clients ~ops ~on_event0 in
        let wall = Array.fold_left (fun m (w, _) -> Float.max m w) 0. passes in
        let lat = Stats.Summary.create () in
        Array.iter
          (fun (_, results) ->
            Array.iter
              (function
                | Ok (o : Net.Client.outcome) ->
                    Stats.Summary.add_int lat o.latency_us;
                    (match o.value with
                    | Some (Core.Value.V "e18") -> ()
                    | Some _ | None -> incr mismatches)
                | Error e ->
                    incr failures;
                    Printf.eprintf "E18: read failed: %s\n" e)
              results)
          passes;
        let rate = float_of_int total_ops /. wall in
        Exp_common.note
          "  domains=%-2d trial=%d  %8.0f ops/s  p50=%.0fus p99=%.0fus" nd
          trial rate
          (Stats.Summary.percentile lat 50.)
          (Stats.Summary.percentile lat 99.);
        match !best with
        | Some (_, r, _) when r >= rate -> ()
        | _ -> best := Some (wall, rate, lat)
      done;
      Array.iter Net.Client.Keyed.close clients;
      Array.iter Net.Server.stop servers;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      let partition = Net.Server.partition_violations servers.(0) in
      let merged = Obs.Metrics.create () in
      Array.iter (fun r -> Obs.Metrics.merge_into ~dst:merged r) registries;
      let history = Histories.Recorder.ops recorder in
      let violations =
        (if Histories.Checks.is_safe ~equal:String.equal history then 0 else 1)
        + if Histories.Checks.is_regular ~equal:String.equal history then 0
          else 1
      in
      violations_total := !violations_total + violations;
      partition_total := !partition_total + partition;
      let wall, rate, lat =
        match !best with Some b -> b | None -> (0., 0., Stats.Summary.create ())
      in
      Hashtbl.replace rates nd rate;
      Printf.bprintf buf
        "    { \"domains\": %d, \"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": \
         %.1f,\n      "
        nd total_ops wall rate;
      summary_json buf "latency" lat;
      Printf.bprintf buf
        ",\n      \"failures\": %d, \"mismatches\": %d,\n      \
         \"history_ops\": %d, \"violations\": %d, \"partition_violations\": \
         %d"
        !failures !mismatches (List.length history) violations partition;
      (match Obs.Metrics.find_histogram merged "wire.batch_size" with
      | Some h when Obs.Metrics.Histogram.count h > 0 ->
          let p50 = Obs.Metrics.Histogram.quantile h 50. in
          if p50 <= 1. then batch_ok_all := false;
          Printf.bprintf buf
            ",\n      \"batch_size\": { \"count\": %d, \"p50\": %g, \"p99\": \
             %g, \"max\": %g }"
            (Obs.Metrics.Histogram.count h)
            p50
            (Obs.Metrics.Histogram.quantile h 99.)
            (Obs.Metrics.Histogram.max_exn h)
      | _ ->
          batch_ok_all := false;
          Printf.bprintf buf ",\n      \"batch_size\": null");
      Printf.bprintf buf " }%s\n" (if li = List.length levels - 1 then "" else ",")
      )
    levels;
  Printf.bprintf buf "  ],\n";
  let rate_at k = Hashtbl.find_opt rates k in
  (match (rate_at 1, rate_at 2) with
  | Some r1, Some r2 when r1 > 0. ->
      Printf.bprintf buf
        "  \"speedup_2_vs_1\": %.2f,\n  \"scaling_2_vs_1_ok\": %b,\n"
        (r2 /. r1)
        (r2 >= 1.2 *. r1)
  | _ -> ());
  (match (rate_at 1, rate_at 4) with
  | Some r1, Some r4 when r1 > 0. ->
      Printf.bprintf buf
        "  \"speedup_4_vs_1\": %.2f,\n  \"scaling_4_vs_1_ok\": %b,\n"
        (r4 /. r1)
        (r4 >= 2.5 *. r1)
  | _ -> ());
  Printf.bprintf buf
    "  \"batch_p50_gt_1_all\": %b,\n  \"violations_total\": %d,\n  \
     \"partition_violations_total\": %d\n}\n"
    !batch_ok_all !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
