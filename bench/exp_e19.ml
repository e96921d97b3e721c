(* E19 -- sharded multi-register keyspace: ops/s and latency vs key
   count and popularity skew.

   E18 scaled ONE register's server across worker domains; E19 scales
   the register COUNT.  A Shard.Map places a key universe over a fleet
   of base-object servers (each key's shard is S = 2t+b+1 rotation-
   placed fleet slots, recomputed identically by every client and
   domain -- no placement service), the wire protocol carries a varint
   key tag on every frame (Msg_key), servers keep per-key object tables
   inside the same multi-domain poll group, and each client drives
   per-key reader/writer automata through one keyed client over one
   connection per fleet server.

   Load is E19_CLIENTS client domains, each with its own keyed client
   (distinct reader id, disjoint write ownership: client c writes only
   keys with mix(key) mod clients = c -- the registers are SWMR), all
   released from an atomic barrier per timed pass.  The op mix is the
   Workload.Keyspace zipfian generator.  For each cell
   (key count x skew):

   1. throughput: total ops/s across client domains, per-op latency
      p50/p99 (reads and writes pooled, reads dominating per the write
      ratio);
   2. correctness: client domain 0 records every operation on a sampled
      key subset (keys it owns, id < E19_SAMPLE) into per-key histories;
      each must pass the single-register safety AND regularity checkers
      -- a key is exactly the paper's register, so the per-key check is
      the whole correctness argument;
   3. fast reads: the per-shard shard.<i>.fast_reads counters must show
      the one-round path engaging on every shard that served reads (the
      cell runs regular-gc at S = 2t+2b+1, where the lower bound admits
      fast reads);
   4. partitioning: Server.partition_violations must stay 0 -- per-key
      tables nest inside the per-domain object partition, so the PR 8
      invariant carries over to keyspaces unchanged.

   One JSON artifact: BENCH_e19.json.  Environment-tunable:
     E19_OPS         (3000)            ops per client domain per cell
     E19_KEYS        (1000,10000,100000,1000000)  key-count sweep
     E19_SKEWS       (0,0.99)          zipf skew sweep (0 = uniform)
     E19_CLIENTS     (2)               client load domains
     E19_INFLIGHT    (16)              operation window per client domain
     E19_DOMAINS     (2)               server worker domains
     E19_FLEET       (4)               fleet size (>= S = 3)
     E19_WRITE_RATIO (0.05)            write fraction of the mix
     E19_SAMPLE      (128)             history-sampled key-id bound
     E19_TRIALS      (2)               trials per cell; best is reported
     E19_TRANSPORT   (unix)            loopback transport: unix | tcp
     E19_OUT         (BENCH_e19.json)  output path *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf "%s expects a positive integer (got %S)\n" name s;
          exit 2)
  | None -> default

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f >= 0.0 -> f
      | _ ->
          Printf.eprintf "%s expects a nonnegative float (got %S)\n" name s;
          exit 2)
  | None -> default

let getenv_list name default parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match parse (String.trim x) with
             | Some v -> v
             | None ->
                 Printf.eprintf "%s: cannot parse %S\n" name s;
                 exit 2)

let transport () =
  match Sys.getenv_opt "E19_TRANSPORT" with
  | None -> `Unix
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "E19_TRANSPORT expects tcp or unix (got %S)\n" s;
          exit 2)

let fresh_tmpdir () =
  let path = Filename.temp_file "e19" "" in
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

let to_kop = function
  | Workload.Keyspace.Read { key } -> Net.Client.Keyed.Read { key }
  | Workload.Keyspace.Write { key; value } ->
      Net.Client.Keyed.Write { key; value }

(* One measured pass: every client domain draws its ops (untimed), spins
   on the barrier, then drives them through its keyed client; the cell's
   wall-clock is the slowest domain's. *)
let timed_pass ~keyeds ~gens ~ops ~record0 =
  let n = Array.length keyeds in
  let barrier = Atomic.make 0 in
  let body c () =
    let kops = Array.map to_kop (Workload.Keyspace.ops gens.(c) ops) in
    Atomic.incr barrier;
    while Atomic.get barrier < n do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    let results =
      if c = 0 then
        Net.Client.Keyed.run_ops ~on_event:(record0 kops) keyeds.(c) kops
      else Net.Client.Keyed.run_ops keyeds.(c) kops
    in
    (Unix.gettimeofday () -. t0, results)
  in
  let doms = Array.init n (fun c -> Domain.spawn (body c)) in
  Array.map Domain.join doms

let run () =
  let ops = getenv_int "E19_OPS" 3000 in
  let clients = getenv_int "E19_CLIENTS" 2 in
  let inflight = getenv_int "E19_INFLIGHT" 16 in
  let domains = getenv_int "E19_DOMAINS" 2 in
  let fleet = getenv_int "E19_FLEET" 4 in
  let write_ratio = getenv_float "E19_WRITE_RATIO" 0.05 in
  let sample_bound = getenv_int "E19_SAMPLE" 128 in
  let trials = getenv_int "E19_TRIALS" 2 in
  let out = Option.value (Sys.getenv_opt "E19_OUT") ~default:"BENCH_e19.json" in
  let key_levels =
    getenv_list "E19_KEYS" [ 1_000; 10_000; 100_000; 1_000_000 ] (fun s ->
        match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
  in
  let skews =
    getenv_list "E19_SKEWS" [ 0.0; 0.99 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && f < 1.0 -> Some f
        | _ -> None)
  in
  let transport = transport () in
  let transport_name = match transport with `Tcp -> "tcp" | `Unix -> "unix" in
  (* S = 3 = 2t+2b+1 at t=1, b=0: the lower bound admits one-round
     reads, so regular-gc's fast path should engage on every shard. *)
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let protocol = Net.Protocols.regular_gc ~readers:clients in
  if fleet < cfg.Quorum.Config.s then begin
    Printf.eprintf "E19_FLEET must be >= S = %d\n" cfg.Quorum.Config.s;
    exit 2
  end;
  let cores = Domain.recommended_domain_count () in
  let total_ops = clients * ops in
  Exp_common.note
    "E19: keyspace scale (%d cores; keys in {%s}; skews {%s}; fleet %d, %d \
     server domains; %d client domains x window %d x %d ops; write ratio \
     %.2f; best of %d; %s loopback)"
    cores
    (String.concat "," (List.map string_of_int key_levels))
    (String.concat "," (List.map (Printf.sprintf "%g") skews))
    fleet domains clients inflight ops write_ratio trials transport_name;
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e19\",\n  \"transport\": \"%s\",\n  \
     \"protocol\": \"%s\",\n  \"s\": %d, \"t\": 1, \"b\": 0,\n  \"fleet\": \
     %d,\n  \"server_domains\": %d,\n  \"cores\": %d,\n  \"clients\": %d,\n  \
     \"inflight\": %d,\n  \"ops_per_client\": %d,\n  \"write_ratio\": %g,\n  \
     \"trials\": %d,\n  \"cells\": [\n"
    transport_name
    (Net.Protocols.name protocol)
    cfg.Quorum.Config.s fleet domains cores clients inflight ops write_ratio
    trials;
  let violations_total = ref 0 in
  let partition_total = ref 0 in
  let fast_all = ref true in
  let cells = List.concat_map (fun k -> List.map (fun z -> (k, z)) skews) key_levels in
  List.iteri
    (fun ci (keys, skew) ->
      let dir = fresh_tmpdir () in
      let endpoints =
        match transport with
        | `Unix ->
            Array.init fleet (fun i ->
                Net.Endpoint.Unix_sock
                  (Filename.concat dir (Printf.sprintf "obj%d.sock" (i + 1))))
        | `Tcp ->
            Array.init fleet (fun _ ->
                Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
      in
      let registries = Array.init fleet (fun _ -> Obs.Metrics.create ()) in
      let servers =
        Net.Server.start_group
          ~metrics:(fun i -> registries.(i))
          ~domains ~protocol ~cfg endpoints
      in
      let actual = Array.map Net.Server.endpoint servers in
      let map = Shard.Map.make_exn ~keys ~fleet ~cfg () in
      let origin = Unix.gettimeofday () in
      let now_us () = int_of_float ((Unix.gettimeofday () -. origin) *. 1e6) in
      let client_regs = Array.init clients (fun _ -> Obs.Metrics.create ()) in
      let keyeds =
        Array.init clients (fun c ->
            Net.Client.Keyed.connect ~metrics:client_regs.(c) ~now_us
              ~max_inflight:inflight ~reader:(c + 1) ~protocol ~map actual)
      in
      (* Disjoint write ownership across client domains (SWMR per key). *)
      let owner k = Shard.Map.mix k mod clients in
      let gens =
        Array.init clients (fun c ->
            Workload.Keyspace.make_exn ~skew ~write_ratio
              ~write_filter:(fun k -> owner k = c)
              ~keys
              ~seed:(42 + (1_000 * ci) + c)
              ())
      in
      (* Client domain 0 records a sampled key subset: keys IT OWNS (so
         every write to a sampled key is in the history) with small ids
         (where zipf concentrates the traffic).  Each sampled key gets
         its own recorder -- each key is an independent register. *)
      let sampled k = k < sample_bound && owner k = 0 in
      let recorders : (int, string Histories.Recorder.t) Hashtbl.t =
        Hashtbl.create 64
      in
      let open_ops : (int * bool, Histories.Recorder.op_handle) Hashtbl.t =
        Hashtbl.create 64
      in
      let rec_mutex = Mutex.create () in
      let recorder_for key =
        match Hashtbl.find_opt recorders key with
        | Some r -> r
        | None ->
            let r = Histories.Recorder.create () in
            Hashtbl.replace recorders key r;
            r
      in
      let record0 kops ev =
        Mutex.lock rec_mutex;
        (try
           (match ev with
           (* coalescing stays off in E19 (E20 measures it), so no
              [joined] events can reach this recorder *)
           | Net.Client.Keyed.Invoke { op; key; write; at_us; _ } ->
               if sampled key then begin
                 match Hashtbl.find_opt open_ops (key, write) with
                 | Some _ -> ()  (* resumed op: invocation stands *)
                 | None ->
                     let r = recorder_for key in
                     let h =
                       if write then
                         let v =
                           match kops.(op) with
                           | Net.Client.Keyed.Write { value; _ } ->
                               Core.Value.to_string value
                           | Net.Client.Keyed.Read _ -> assert false
                         in
                         Histories.Recorder.invoke_write r ~time:at_us v
                       else Histories.Recorder.invoke_read r ~time:at_us ~reader:1
                     in
                     Hashtbl.replace open_ops (key, write) h
               end
           | Net.Client.Keyed.Respond { key; write; at_us; outcome; _ } ->
               if sampled key then begin
                 match outcome with
                 | Error _ -> ()
                 | Ok o -> (
                     match Hashtbl.find_opt open_ops (key, write) with
                     | None -> ()
                     | Some h ->
                         Hashtbl.remove open_ops (key, write);
                         let r = recorder_for key in
                         if write then
                           Histories.Recorder.respond_write r h ~time:at_us
                         else
                           let result =
                             match o.Net.Client.value with
                             | Some Core.Value.Bottom | None ->
                                 Histories.Op.Bottom
                             | Some (Core.Value.V v) -> Histories.Op.Value v
                           in
                           Histories.Recorder.respond_read r h ~time:at_us
                             result)
               end)
         with e ->
           Mutex.unlock rec_mutex;
           raise e);
        Mutex.unlock rec_mutex
      in
      (* Untimed warmup, reads only: a warmup write on a sampled key
         would be invisible to the recorded history. *)
      let warm_gens =
        Array.init clients (fun c ->
            Workload.Keyspace.make_exn ~skew ~write_ratio:0.0 ~keys
              ~seed:(7 + c) ())
      in
      ignore
        (timed_pass ~keyeds ~gens:warm_gens ~ops:(Stdlib.min 200 ops)
           ~record0:(fun _ _ -> ()));
      let failures = ref 0 in
      let best = ref None in
      for trial = 1 to trials do
        let passes = timed_pass ~keyeds ~gens ~ops ~record0 in
        let wall = Array.fold_left (fun m (w, _) -> Float.max m w) 0. passes in
        let lat = Stats.Summary.create () in
        let reads = ref 0 and fast = ref 0 and writes = ref 0 in
        Array.iter
          (fun (_, results) ->
            Array.iter
              (function
                | Ok (o : Net.Client.outcome) -> (
                    Stats.Summary.add_int lat o.latency_us;
                    match o.value with
                    | Some _ ->
                        incr reads;
                        if o.rounds <= 1 then incr fast
                    | None -> incr writes)
                | Error e ->
                    incr failures;
                    Printf.eprintf "E19: op failed: %s\n" e)
              results)
          passes;
        let rate = float_of_int total_ops /. wall in
        Exp_common.note
          "  keys=%-8d skew=%-4g trial=%d  %8.0f ops/s  p50=%.0fus \
           p99=%.0fus  fast %d/%d reads"
          keys skew trial rate
          (Stats.Summary.percentile lat 50.)
          (Stats.Summary.percentile lat 99.)
          !fast !reads;
        match !best with
        | Some (_, r, _, _) when r >= rate -> ()
        | _ -> best := Some (wall, rate, lat, (!reads, !fast, !writes))
      done;
      let touched =
        Array.fold_left
          (fun acc k -> acc + Net.Client.Keyed.keys_touched k)
          0 keyeds
      in
      Array.iter Net.Client.Keyed.close keyeds;
      Array.iter Net.Server.stop servers;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      let partition = Net.Server.partition_violations servers.(0) in
      (* Per-key histories: every sampled key must pass the paper's
         single-register checkers. *)
      let sampled_keys = Hashtbl.length recorders in
      let violations =
        Hashtbl.fold
          (fun _key r acc ->
            let h = Histories.Recorder.ops r in
            (if Histories.Checks.is_safe ~equal:String.equal h then acc
             else acc + 1)
            + if Histories.Checks.is_regular ~equal:String.equal h then 0
              else 1)
          recorders 0
      in
      violations_total := !violations_total + violations;
      partition_total := !partition_total + partition;
      let merged = Obs.Metrics.create () in
      Array.iter (fun r -> Obs.Metrics.merge_into ~dst:merged r) registries;
      Array.iter (fun r -> Obs.Metrics.merge_into ~dst:merged r) client_regs;
      (* Fast-read engagement per shard, from the keyed clients'
         shard.<i>.* counters. *)
      let shards_with_reads = ref 0 and shards_fast = ref 0 in
      for sh = 0 to Shard.Map.shards map - 1 do
        let reads =
          Obs.Metrics.counter_value merged (Printf.sprintf "shard.%d.reads" sh)
        in
        let fast =
          Obs.Metrics.counter_value merged
            (Printf.sprintf "shard.%d.fast_reads" sh)
        in
        if reads > 0 then begin
          incr shards_with_reads;
          if fast > 0 then incr shards_fast
        end
      done;
      if !shards_with_reads = 0 || !shards_fast < !shards_with_reads then
        fast_all := false;
      let wall, rate, lat, (reads, fast, wrts) =
        match !best with
        | Some b -> b
        | None -> (0., 0., Stats.Summary.create (), (0, 0, 0))
      in
      Printf.bprintf buf
        "    { \"keys\": %d, \"skew\": %g, \"ops\": %d, \"wall_s\": %.4f, \
         \"ops_per_s\": %.1f,\n      "
        keys skew total_ops wall rate;
      summary_json buf "latency" lat;
      Printf.bprintf buf
        ",\n      \"reads\": %d, \"fast_reads\": %d, \"writes\": %d, \
         \"failures\": %d,\n      \"keys_touched\": %d, \"sampled_keys\": %d, \
         \"violations\": %d, \"partition_violations\": %d,\n      \
         \"shards_with_reads\": %d, \"shards_fast\": %d"
        reads fast wrts !failures touched sampled_keys violations partition
        !shards_with_reads !shards_fast;
      (match Obs.Metrics.find_histogram merged "wire.bytes_per_frame" with
      | Some h when Obs.Metrics.Histogram.count h > 0 ->
          Printf.bprintf buf
            ",\n      \"bytes_per_frame\": { \"count\": %d, \"p50\": %g, \
             \"p99\": %g, \"mean\": %.1f }"
            (Obs.Metrics.Histogram.count h)
            (Obs.Metrics.Histogram.quantile h 50.)
            (Obs.Metrics.Histogram.quantile h 99.)
            (Obs.Metrics.Histogram.mean h)
      | _ -> Printf.bprintf buf ",\n      \"bytes_per_frame\": null");
      Printf.bprintf buf " }%s\n"
        (if ci = List.length cells - 1 then "" else ","))
    cells;
  Printf.bprintf buf
    "  ],\n  \"fast_reads_all_shards\": %b,\n  \"violations_total\": %d,\n  \
     \"partition_violations_total\": %d\n}\n"
    !fast_all !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
