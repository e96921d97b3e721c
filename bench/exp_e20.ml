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
   3. correctness: every op of every client domain, warm-up included,
      is recorded through Core.Record (one log per domain) into per-key
      histories, and every key's history must pass the single-register
      regularity checker, the property regular-gc claims, and every op
      its 2-round bound
      ("all_ops_checked": the histories' complete ops equal the ops
      that completed).  Joined reads record
      under reader ids of their own, so in on-cells the histories
      genuinely contain the concurrent-read structure coalescing
      creates;
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
     E20_TRIALS      (2)               trials per cell; best is reported
     E20_TRANSPORT   (unix)            loopback transport: unix | tcp
     E20_OUT         (BENCH_e20.json)  output path *)

let run () =
  let ops = Exp_common.getenv_int "E20_OPS" 3000 in
  let keys = Exp_common.getenv_int "E20_KEYS" 256 in
  let coalesce_on = Exp_common.getenv_int "E20_COALESCE" 64 in
  let clients = Exp_common.getenv_int "E20_CLIENTS" 2 in
  let inflight = Exp_common.getenv_int "E20_INFLIGHT" 64 in
  let domains = Exp_common.getenv_int "E20_DOMAINS" 2 in
  let fleet = Exp_common.getenv_int "E20_FLEET" 4 in
  let write_ratio = Exp_common.getenv_float "E20_WRITE_RATIO" 0.04 in
  let trials = Exp_common.getenv_int "E20_TRIALS" 2 in
  let out = Option.value (Sys.getenv_opt "E20_OUT") ~default:"BENCH_e20.json" in
  let skews =
    Exp_common.getenv_list "E20_SKEWS" [ 0.0; 0.9; 0.99; 1.2 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && Float.is_finite f -> Some f
        | _ -> None)
  in
  let transport = Exp_common.transport "E20_TRANSPORT" ~default:`Unix in
  let transport_name = Exp_common.transport_name transport in
  (* S = 3 = 2t+2b+1 at t=1, b=0: the lower bound admits one-round
     reads, so coalesced batches ride the fast path. *)
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let protocol = Net.Protocols.regular_gc ~readers:clients in
  if fleet < cfg.Quorum.Config.s then begin
    Printf.eprintf "E20_FLEET must be >= S = %d\n" cfg.Quorum.Config.s;
    exit 2
  end;
  let cores = Domain.recommended_domain_count () in
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
  let all_checked = ref true in
  (* (skew, coalesce cap, ops/s, coalesce-width p50 if observed) per
     cell, for the verdict fields. *)
  let outcomes = ref [] in
  let cells =
    List.concat_map (fun z -> [ (z, 1); (z, coalesce_on) ]) skews
  in
  List.iteri
    (fun ci (skew, coalesce) ->
      let c =
        Exp_common.keyspace_cell ~exp:"E20"
          ~label:(Printf.sprintf "skew=%-4g coalesce=%-3d" skew coalesce)
          ~transport ~protocol ~entry:Regular_gc ~cfg ~fleet ~domains ~clients ~inflight
          ~coalesce ~keys ~skew ~write_ratio ~ops ~trials
          ~seed:(42 + (1_000 * ci))
      in
      violations_total := !violations_total + c.violations;
      partition_total := !partition_total + c.partition;
      if c.shards_with_reads = 0 || c.shards_fast < c.shards_with_reads then
        fast_all := false;
      if c.ops_checked <> c.ops_completed then all_checked := false;
      let coalesced_reads =
        Obs.Metrics.counter_value c.metrics "op.coalesced_reads"
      in
      let width = Obs.Metrics.find_histogram c.metrics "op.coalesce_width" in
      let width_p50 =
        match width with
        | Some h when Obs.Metrics.Histogram.count h > 0 ->
            Some (Obs.Metrics.Histogram.quantile h 50.)
        | _ -> None
      in
      outcomes := (skew, coalesce, c.rate, width_p50) :: !outcomes;
      Printf.bprintf buf "    { \"skew\": %g, \"coalesce\": %d, " skew coalesce;
      Exp_common.keyspace_cell_json buf c;
      Printf.bprintf buf ",\n      \"coalesced_reads\": %d, " coalesced_reads;
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
      Printf.bprintf buf " }%s\n"
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
     \"all_ops_checked\": %b,\n  \"violations_total\": %d,\n  \
     \"partition_violations_total\": %d\n}\n"
    skew_helps !fast_all !all_checked !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
