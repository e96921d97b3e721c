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
   2. correctness: every op of every client domain, warm-up included,
      is recorded through Core.Record (one log per domain) into per-key
      histories, and every key's history must pass the single-register
      checker of the property regular-gc claims, regularity, and every
      op its 2-round bound -- a key is exactly the paper's register, so
      the per-key check is the whole correctness argument
      ("all_ops_checked": the histories' complete ops equal the ops that
      completed);
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
     E19_TRIALS      (2)               trials per cell; best is reported
     E19_TRANSPORT   (unix)            loopback transport: unix | tcp
     E19_OUT         (BENCH_e19.json)  output path *)

let run () =
  let ops = Exp_common.getenv_int "E19_OPS" 3000 in
  let clients = Exp_common.getenv_int "E19_CLIENTS" 2 in
  let inflight = Exp_common.getenv_int "E19_INFLIGHT" 16 in
  let domains = Exp_common.getenv_int "E19_DOMAINS" 2 in
  let fleet = Exp_common.getenv_int "E19_FLEET" 4 in
  let write_ratio = Exp_common.getenv_float "E19_WRITE_RATIO" 0.05 in
  let trials = Exp_common.getenv_int "E19_TRIALS" 2 in
  let out = Option.value (Sys.getenv_opt "E19_OUT") ~default:"BENCH_e19.json" in
  let key_levels =
    Exp_common.getenv_list "E19_KEYS" [ 1_000; 10_000; 100_000; 1_000_000 ]
      (fun s ->
        match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
  in
  let skews =
    Exp_common.getenv_list "E19_SKEWS" [ 0.0; 0.99 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && f < 1.0 -> Some f
        | _ -> None)
  in
  let transport = Exp_common.transport "E19_TRANSPORT" ~default:`Unix in
  let transport_name = Exp_common.transport_name transport in
  (* S = 3 = 2t+2b+1 at t=1, b=0: the lower bound admits one-round
     reads, so regular-gc's fast path should engage on every shard. *)
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let protocol = Net.Protocols.regular_gc ~readers:clients in
  if fleet < cfg.Quorum.Config.s then begin
    Printf.eprintf "E19_FLEET must be >= S = %d\n" cfg.Quorum.Config.s;
    exit 2
  end;
  let cores = Domain.recommended_domain_count () in
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
  let all_checked = ref true in
  let cells =
    List.concat_map (fun k -> List.map (fun z -> (k, z)) skews) key_levels
  in
  List.iteri
    (fun ci (keys, skew) ->
      let c =
        Exp_common.keyspace_cell ~exp:"E19"
          ~label:(Printf.sprintf "keys=%-8d skew=%-4g" keys skew)
          ~transport ~protocol ~entry:Regular_gc ~cfg ~fleet ~domains ~clients ~inflight
          ~coalesce:1 ~keys ~skew ~write_ratio ~ops ~trials
          ~seed:(42 + (1_000 * ci))
      in
      violations_total := !violations_total + c.violations;
      partition_total := !partition_total + c.partition;
      if c.shards_with_reads = 0 || c.shards_fast < c.shards_with_reads then
        fast_all := false;
      if c.ops_checked <> c.ops_completed then all_checked := false;
      Printf.bprintf buf "    { \"keys\": %d, \"skew\": %g, " keys skew;
      Exp_common.keyspace_cell_json buf c;
      (match Obs.Metrics.find_histogram c.metrics "wire.bytes_per_frame" with
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
    "  ],\n  \"fast_reads_all_shards\": %b,\n  \"all_ops_checked\": %b,\n  \
     \"violations_total\": %d,\n  \"partition_violations_total\": %d\n}\n"
    !fast_all !all_checked !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
