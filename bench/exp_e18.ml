(* E18 -- multi-domain event-loop scale-out: ops/s vs worker domains.

   E15 established that a single poll domain saturates once enough
   operations are in flight; E18 measures what sharding the same server
   across N worker domains buys.  The server group (Server.start_group)
   partitions base objects -- their listeners and every connection
   accepted for them -- across N domains (object i is owned by domain
   (i-1) mod N), so the accept/read/decode/step/encode/flush path is
   domain-local and no connection or automaton crosses domains.

   Load comes from E18_CLIENTS in-process client domains, each driving
   its own engine of the cluster (Net.Cluster.engine: disjoint reader-id
   ranges, E18_INFLIGHT lanes and ops in flight) against the shared
   group; all client domains start each timed pass on an atomic barrier.
   For each domain count:

   1. throughput: total ops/s across client domains (the cell's wall is
      the slowest domain's) and per-op latency p50/p99;
   2. correctness: every op must return the seeded value, and every
      op of every client domain -- warm-up and seeding write included --
      is recorded by Net.Cluster.run (one log per engine, so recording
      never serializes the domains) into one history that, with every
      op's rounds, must pass the safe protocol's table row: safety and
      at most 2 rounds per op ("all_ops_checked": the history's complete
      ops equal the ops that completed);
   3. wire efficiency: the servers' wire.batch_size in the cluster's
      merged registry must show p50 > 1 (scale-out must not destroy
      coalescing); the engines' own flushes are net.client.batch_size;
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

let domain_levels () =
  Exp_common.getenv_list "E18_DOMAINS" [ 1; 2; 4; 8 ] (fun x ->
      match int_of_string_opt x with Some n when n >= 1 -> Some n | _ -> None)

let run () =
  let ops = Exp_common.getenv_int "E18_OPS" 2000 in
  let clients = Exp_common.getenv_int "E18_CLIENTS" 4 in
  let inflight = Exp_common.getenv_int "E18_INFLIGHT" 16 in
  let trials = Exp_common.getenv_int "E18_TRIALS" 3 in
  let out = Option.value (Sys.getenv_opt "E18_OUT") ~default:"BENCH_e18.json" in
  let levels = domain_levels () in
  let transport = Exp_common.transport "E18_TRANSPORT" ~default:`Unix in
  let transport_name = Exp_common.transport_name transport in
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
  let all_checked = ref true in
  List.iteri
    (fun li nd ->
      let cluster =
        Net.Cluster.start ~transport ~domains:nd ~protocol ~cfg ()
      in
      (* One engine per client domain, taken once per cell: reader ids
         stay unique for the group's lifetime (base objects keep
         per-reader round state) and trials after the first run warm.
         Each records into a log and meters into a registry of its own. *)
      let engines =
        Array.init clients (fun _ ->
            Net.Cluster.engine ~lanes:inflight ~inflight cluster)
      in
      (* Seed one write so every read returns a real value. *)
      ignore
        (Exp_common.ok_exn "E18" "seed write"
           (Exp_common.run_one engines.(0) (Exp_common.write0 "e18")));
      let reads = Array.make ops Exp_common.read0 in
      let pass n =
        Exec.Pool.timed clients (fun c ->
            let kops = Array.sub reads 0 n in
            fun () -> Net.Cluster.run engines.(c) kops)
      in
      (* untimed warmup: connections, hellos, first automaton steps *)
      let completed =
        ref (1 + Exp_common.completed (pass (Stdlib.min 200 ops)))
      in
      let failures = ref 0 in
      let mismatches = ref 0 in
      let best = ref None in
      for trial = 1 to trials do
        let passes = pass ops in
        completed := !completed + Exp_common.completed passes;
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
      Net.Cluster.stop cluster;
      let partition = Net.Cluster.partition_violations cluster in
      let merged = Net.Cluster.metrics cluster in
      let verdict =
        Exp_common.judge_cluster Safe cluster ~completed:!completed
          ~total:(!completed + !failures)
      in
      let violations = Fault.Campaign.breaches verdict
      and checked = verdict.checked in
      violations_total := !violations_total + violations;
      partition_total := !partition_total + partition;
      if checked <> !completed then all_checked := false;
      let wall, rate, lat =
        match !best with Some b -> b | None -> (0., 0., Stats.Summary.create ())
      in
      Hashtbl.replace rates nd rate;
      Printf.bprintf buf
        "    { \"domains\": %d, \"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": \
         %.1f,\n      "
        nd total_ops wall rate;
      Exp_common.summary_json buf "latency" lat;
      Printf.bprintf buf
        ",\n      \"failures\": %d, \"mismatches\": %d,\n      \
         \"ops_completed\": %d, \"ops_checked\": %d, \"violations\": %d, \
         \"partition_violations\": %d"
        !failures !mismatches !completed checked violations partition;
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
    "  \"batch_p50_gt_1_all\": %b,\n  \"all_ops_checked\": %b,\n  \
     \"violations_total\": %d,\n  \"partition_violations_total\": %d\n}\n"
    !batch_ok_all !all_checked !violations_total !partition_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
