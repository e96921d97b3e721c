(* E20 -- hot-key read coalescing: ops/s and latency vs popularity skew
   with coalescing off/on.

   E19 showed skew HURTS: a hot key serializes its reads behind one
   per-key automaton, so the hotter the keyspace the longer the queue.
   PR 10's coalescing inverts that: reads that arrive while a round-1
   broadcast for the same key is still being assembled join that round
   and adopt its result, so a hot key amortizes one quorum round over
   many logical reads.  E20 measures exactly that inversion on a small
   hot keyspace: for each skew in {0, 0.9, 0.99, 1.2} run the same
   workload with --coalesce off (cap 1) and on (cap E20_COALESCE),
   and report per-cell:

   1. throughput: total ops/s across client domains, latency p50/p99;
   2. coalescing: op.coalesced_reads and the op.coalesce_width
      histogram (observed once per batch member, so p50 > 1 means most
      reads shared a round) -- present only in on-cells;
   3. correctness: client domain 0 records a sampled key subset
      (including the hot keys, where coalescing concentrates) into
      per-key histories; each must pass the single-register safety AND
      regularity checkers.  Joined reads record under fresh reader ids
      so the histories genuinely contain the concurrent-read structure
      coalescing creates;
   4. fast reads: the cell runs regular-gc at S = 3 = 2t+2b+1, so the
      one-round path must engage on every shard that served reads --
      coalescing and fast reads compose (a width-k batch is one
      one-round RPC serving k reads);
   5. partitioning: Server.partition_violations must stay 0.

   Verdict fields: "width_p50_gt_1" (every on-cell at skew >= 0.9 has
   coalesce-width p50 above its lowest bucket), "speedup_0_99" (on/off
   ops/s ratio at skew 0.99; the roadmap gate is >= 1.3), and
   "skew_helps" (with coalescing on, the best skewed cell beats the
   uniform cell -- the E19 trend inverted).

   One JSON artifact: BENCH_e20.json.  Environment-tunable:
     E20_OPS         (3000)            ops per client domain per cell
     E20_KEYS        (256)             key universe (small and hot)
     E20_SKEWS       (0,0.9,0.99,1.2)  zipf skew sweep
     E20_COALESCE    (64)              batch cap in the on-cells
     E20_CLIENTS     (2)               client load domains
     E20_INFLIGHT    (64)              operation window per client domain
     E20_DOMAINS     (2)               server worker domains
     E20_FLEET       (4)               fleet size (>= S = 3)
     E20_WRITE_RATIO (0.04)            write fraction of the mix
     E20_SAMPLE      (128)             history-sampled key-id bound
     E20_TRIALS      (2)               trials per cell; best is reported
     E20_TRANSPORT   (unix)            loopback transport: unix | tcp
     E20_OUT         (BENCH_e20.json)  output path *)

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
  match Sys.getenv_opt "E20_TRANSPORT" with
  | None -> `Unix
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "E20_TRANSPORT expects tcp or unix (got %S)\n" s;
          exit 2)

let fresh_tmpdir () =
  let path = Filename.temp_file "e20" "" in
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
  let ops = getenv_int "E20_OPS" 3000 in
  let keys = getenv_int "E20_KEYS" 256 in
  let coalesce_on = getenv_int "E20_COALESCE" 64 in
  let clients = getenv_int "E20_CLIENTS" 2 in
  let inflight = getenv_int "E20_INFLIGHT" 64 in
  let domains = getenv_int "E20_DOMAINS" 2 in
  let fleet = getenv_int "E20_FLEET" 4 in
  let write_ratio = getenv_float "E20_WRITE_RATIO" 0.04 in
  let sample_bound = getenv_int "E20_SAMPLE" 128 in
  let trials = getenv_int "E20_TRIALS" 2 in
  let out = Option.value (Sys.getenv_opt "E20_OUT") ~default:"BENCH_e20.json" in
  let skews =
    getenv_list "E20_SKEWS" [ 0.0; 0.9; 0.99; 1.2 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && Float.is_finite f -> Some f
        | _ -> None)
  in
  let transport = transport () in
  let transport_name = match transport with `Tcp -> "tcp" | `Unix -> "unix" in
  (* S = 3 = 2t+2b+1 at t=1, b=0: the lower bound admits one-round
     reads, so coalesced batches ride the fast path. *)
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let protocol = Net.Protocols.regular_gc ~readers:clients in
  if fleet < cfg.Quorum.Config.s then begin
    Printf.eprintf "E20_FLEET must be >= S = %d\n" cfg.Quorum.Config.s;
    exit 2
  end;
  let cores = Domain.recommended_domain_count () in
  let total_ops = clients * ops in
  Exp_common.note
    "E20: hot-key coalescing (%d cores; %d keys; skews {%s}; coalesce \
     {off,%d}; fleet %d, %d server domains; %d client domains x window %d x \
     %d ops; write ratio %.2f; best of %d; %s loopback)"
    cores keys
    (String.concat "," (List.map (Printf.sprintf "%g") skews))
    coalesce_on fleet domains clients inflight ops write_ratio trials
    transport_name;
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e20\",\n  \"transport\": \"%s\",\n  \
     \"protocol\": \"%s\",\n  \"s\": %d, \"t\": 1, \"b\": 0,\n  \"fleet\": \
     %d,\n  \"server_domains\": %d,\n  \"cores\": %d,\n  \"clients\": %d,\n  \
     \"inflight\": %d,\n  \"ops_per_client\": %d,\n  \"keys\": %d,\n  \
     \"coalesce_cap\": %d,\n  \"write_ratio\": %g,\n  \"trials\": %d,\n  \
     \"cells\": [\n"
    transport_name
    (Net.Protocols.name protocol)
    cfg.Quorum.Config.s fleet domains cores clients inflight ops keys
    coalesce_on write_ratio trials;
  let violations_total = ref 0 in
  let partition_total = ref 0 in
  let fast_all = ref true in
  (* (skew, coalesce cap, ops/s, coalesce-width p50 if observed) per
     cell, for the verdict fields. *)
  let outcomes = ref [] in
  let cells =
    List.concat_map (fun z -> [ (z, 1); (z, coalesce_on) ]) skews
  in
  List.iteri
    (fun ci (skew, coalesce) ->
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
              ~max_inflight:inflight ~reader:(c + 1) ~coalesce ~protocol ~map
              actual)
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
         (where zipf concentrates the traffic, i.e. where coalescing
         actually happens).  Each sampled key gets its own recorder.
         Lead ops key on (key, write) exactly as in E19 -- per-key FIFO
         means at most one is open at a time.  Joined reads are
         concurrent by construction, so each records under a fresh
         reader id and its handle keys on the op index. *)
      let sampled k = k < sample_bound && owner k = 0 in
      let recorders : (int, string Histories.Recorder.t) Hashtbl.t =
        Hashtbl.create 64
      in
      let open_ops : (int * bool, Histories.Recorder.op_handle) Hashtbl.t =
        Hashtbl.create 64
      in
      let open_joined : (int, Histories.Recorder.op_handle) Hashtbl.t =
        Hashtbl.create 64
      in
      let next_jrid = ref 1_000_000 in
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
           | Net.Client.Keyed.Invoke { op; key; at_us; joined = true; _ } ->
               if sampled key then begin
                 let jrid = !next_jrid in
                 incr next_jrid;
                 Hashtbl.replace open_joined op
                   (Histories.Recorder.invoke_read (recorder_for key)
                      ~time:at_us ~reader:jrid)
               end
           | Net.Client.Keyed.Respond
               { op; key; at_us; outcome; joined = true; _ } ->
               if sampled key then begin
                 match Hashtbl.find_opt open_joined op with
                 | None -> ()
                 | Some h -> (
                     Hashtbl.remove open_joined op;
                     match outcome with
                     | Error _ -> ()  (* never resumed: the op stays open *)
                     | Ok o ->
                         let result =
                           match o.Net.Client.value with
                           | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                           | Some (Core.Value.V v) -> Histories.Op.Value v
                         in
                         Histories.Recorder.respond_read (recorder_for key) h
                           ~time:at_us result)
               end
           | Net.Client.Keyed.Invoke
               { op; key; write; at_us; joined = false; _ } ->
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
           | Net.Client.Keyed.Respond
               { key; write; at_us; outcome; joined = false; _ } ->
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
                    Printf.eprintf "E20: op failed: %s\n" e)
              results)
          passes;
        let rate = float_of_int total_ops /. wall in
        Exp_common.note
          "  skew=%-4g coalesce=%-3d trial=%d  %8.0f ops/s  p50=%.0fus \
           p99=%.0fus  fast %d/%d reads"
          skew coalesce trial rate
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
         single-register checkers.  In on-cells these histories contain
         genuinely concurrent joined reads. *)
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
      let coalesced_reads =
        Obs.Metrics.counter_value merged "op.coalesced_reads"
      in
      let width = Obs.Metrics.find_histogram merged "op.coalesce_width" in
      let width_p50 =
        match width with
        | Some h when Obs.Metrics.Histogram.count h > 0 ->
            Some (Obs.Metrics.Histogram.quantile h 50.)
        | _ -> None
      in
      outcomes := (skew, coalesce, rate, width_p50) :: !outcomes;
      Printf.bprintf buf
        "    { \"skew\": %g, \"coalesce\": %d, \"ops\": %d, \"wall_s\": \
         %.4f, \"ops_per_s\": %.1f,\n      "
        skew coalesce total_ops wall rate;
      summary_json buf "latency" lat;
      Printf.bprintf buf
        ",\n      \"reads\": %d, \"fast_reads\": %d, \"writes\": %d, \
         \"failures\": %d,\n      \"coalesced_reads\": %d,\n      "
        reads fast wrts !failures coalesced_reads;
      (match width with
      | Some h when Obs.Metrics.Histogram.count h > 0 ->
          Printf.bprintf buf
            "\"coalesce_width\": { \"count\": %d, \"p50\": %g, \"p99\": %g, \
             \"mean\": %.2f }"
            (Obs.Metrics.Histogram.count h)
            (Obs.Metrics.Histogram.quantile h 50.)
            (Obs.Metrics.Histogram.quantile h 99.)
            (Obs.Metrics.Histogram.mean h)
      | _ -> Printf.bprintf buf "\"coalesce_width\": null");
      Printf.bprintf buf
        ",\n      \"keys_touched\": %d, \"sampled_keys\": %d, \
         \"violations\": %d, \"partition_violations\": %d,\n      \
         \"shards_with_reads\": %d, \"shards_fast\": %d }%s\n"
        touched sampled_keys violations partition !shards_with_reads
        !shards_fast
        (if ci = List.length cells - 1 then "" else ","))
    cells;
  (* Verdicts. *)
  let outcomes = !outcomes in
  let rate_at skew coalesce =
    List.find_map
      (fun (z, c, r, _) -> if z = skew && c = coalesce then Some r else None)
      outcomes
  in
  let hot_on =
    List.filter (fun (z, c, _, _) -> z >= 0.9 && c > 1) outcomes
  in
  let width_p50_gt_1 =
    hot_on <> []
    && List.for_all
         (fun (_, _, _, p) -> match p with Some p -> p > 1.0 | None -> false)
         hot_on
  in
  let speedup_0_99 =
    match (rate_at 0.99 coalesce_on, rate_at 0.99 1) with
    | Some on, Some off when off > 0.0 -> Some (on /. off)
    | _ -> None
  in
  let skew_helps =
    match rate_at 0.0 coalesce_on with
    | None -> false
    | Some uniform ->
        List.exists (fun (z, c, r, _) -> z > 0.0 && c > 1 && r >= uniform)
          outcomes
  in
  Printf.bprintf buf "  ],\n  \"width_p50_gt_1\": %b,\n" width_p50_gt_1;
  (match speedup_0_99 with
  | Some s ->
      Printf.bprintf buf
        "  \"speedup_0_99\": %.3f,\n  \"speedup_0_99_ok\": %b,\n" s (s >= 1.3)
  | None ->
      Printf.bprintf buf
        "  \"speedup_0_99\": null,\n  \"speedup_0_99_ok\": null,\n");
  Printf.bprintf buf
    "  \"skew_helps\": %b,\n  \"fast_reads_all_shards\": %b,\n  \
     \"violations_total\": %d,\n  \"partition_violations_total\": %d\n}\n"
    skew_helps !fast_all !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
