(* E15 -- pipelined wire throughput: the in-flight operation window.

   The paper fixes a robust READ at two round-trips (one on the fast
   path), so once latency is wire-bound, throughput is decided by how
   many of those round-trips the runtime keeps in flight.  E15 measures
   exactly that: reads at each max_inflight in E15_INFLIGHT, all through
   the one client engine.  Window 1 — one read at a time, E14's shape —
   is the baseline.

   On a loopback cluster (safe protocol, S=4 t=1 b=0):

   1. sweep: E15_OPS reads through Cluster.run on one engine per window
      size, whose reader lanes are the window; wall-clock ops/s and
      p50/p99 latency, plus failure counts;
   2. correctness: every read must return the written value and none may
      fail (reads_return_written), and the full recorded history must
      pass the checker of the property the protocol claims — safety for
      the safe protocol (violations = 0);
   3. requests per read for every window, counted on a second cluster
      with metrics on, so the registry's cost stays out of the timed
      rows.

   Rates on a shared box jitter by +/-20%, so each timing cell is run
   E15_TRIALS times and the best trial is reported (standard practice
   for throughput floors: the best trial is the one least disturbed by
   unrelated machine noise).  Correctness accounting — mismatches,
   failures, history checks — always covers every trial, not just the
   reported one.

   One JSON artifact: BENCH_e15.json.  Environment-tunable:
     E15_OPS       (2000)          reads per timing cell
     E15_INFLIGHT  (1,4,16,64)     operation-window sweep
     E15_TRIALS    (3)             trials per cell; best is reported
     E15_TRANSPORT (tcp)           loopback transport: tcp | unix
     E15_OUT       (BENCH_e15.json) output path *)

let ok_exn what r = Exp_common.ok_exn "E15" what r

let inflight_levels () =
  Exp_common.getenv_list "E15_INFLIGHT" [ 1; 4; 16; 64 ] (fun s ->
      match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

(* Read requests put on the wire per read, one row per window, [n]
   reads each, on a cluster with metrics on. *)
let requests_per_read ~transport ~protocol ~cfg ~levels ~n =
  let c = Net.Cluster.start ~metrics:true ~transport ~protocol ~cfg () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      ignore
        (ok_exn "metered write"
           (Exp_common.run_one (Net.Cluster.engine c) (Exp_common.write0 "e15")));
      let sent () =
        match Net.Cluster.metrics c with
        | None -> 0
        | Some m ->
            List.fold_left
              (fun acc (name, v) ->
                if
                  String.starts_with ~prefix:"wire.read." name
                  && String.ends_with ~suffix:".req.sent" name
                then acc + v
                else acc)
              0 (Obs.Metrics.counters m)
      in
      List.map
        (fun inflight ->
          let e = Net.Cluster.engine ~lanes:inflight c in
          let before = sent () in
          Array.iter
            (fun r -> ignore (ok_exn "metered read" r))
            (Net.Cluster.run e (Array.make n Exp_common.read0));
          (inflight, float_of_int (sent () - before) /. float_of_int n))
        levels)

let run () =
  let ops = Exp_common.getenv_int "E15_OPS" 2000 in
  let trials = Exp_common.getenv_int "E15_TRIALS" 3 in
  let out = Option.value (Sys.getenv_opt "E15_OUT") ~default:"BENCH_e15.json" in
  let levels = inflight_levels () in
  let transport = Exp_common.transport "E15_TRANSPORT" ~default:`Tcp in
  let transport_name = Exp_common.transport_name transport in
  let protocol = Net.Protocols.safe in
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e15\",\n  \"transport\": \"%s\",\n  \
     \"protocol\": \"%s\",\n  \"s\": 4, \"t\": 1, \"b\": 0,\n  \"ops\": %d,\n\
    \  \"trials\": %d,\n"
    transport_name
    (Net.Protocols.name protocol)
    ops trials;
  Exp_common.note
    "E15: pipelined wire throughput (%d ops/cell, best of %d, %s loopback)" ops
    trials transport_name;
  let cluster = Net.Cluster.start ~transport ~protocol ~cfg () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop cluster)
    (fun () ->
      let _ =
        ok_exn "write"
          (Exp_common.run_one (Net.Cluster.engine cluster)
             (Exp_common.write0 "e15"))
      in
      (* One engine per window, kept across trials and warmed before
         anything is timed: connections, hellos, automata and branch
         caches are cold on the first ops. *)
      let mismatches = ref 0 in
      let failures_total = ref 0 in
      let tally plat results =
        let failures = ref 0 in
        Array.iter
          (function
            | Ok (o : Net.Client.outcome) -> (
                Option.iter (fun s -> Stats.Summary.add_int s o.latency_us) plat;
                match o.value with
                | Some (Core.Value.V "e15") -> ()
                | Some _ | None -> incr mismatches)
            | Error e ->
                incr failures;
                Printf.eprintf "E15: read failed: %s\n" e)
          results;
        failures_total := !failures_total + !failures;
        !failures
      in
      let engines =
        List.map
          (fun inflight ->
            let e = Net.Cluster.engine ~lanes:inflight cluster in
            ignore
              (tally None
                 (Net.Cluster.run e
                    (Array.make (Stdlib.min 200 ops) Exp_common.read0)));
            (inflight, e))
          levels
      in
      (* [trials] full passes over the window levels (interleaved, so
         machine drift hits all levels alike); per level, keep the
         fastest pass *)
      let best = Hashtbl.create 8 in
      for trial = 1 to trials do
        List.iter
          (fun (inflight, e) ->
            let plat = Stats.Summary.create () in
            let t0 = Exp_common.now_s () in
            let results = Net.Cluster.run e (Array.make ops Exp_common.read0) in
            let wall = Exp_common.now_s () -. t0 in
            let failures = tally (Some plat) results in
            let rate = float_of_int ops /. wall in
            Exp_common.note
              "  trial=%d inflight=%-3d %8.0f ops/s  p50=%.0fus p99=%.0fus" trial
              inflight rate
              (Stats.Summary.percentile plat 50.)
              (Stats.Summary.percentile plat 99.);
            match Hashtbl.find_opt best inflight with
            | Some (_, best_rate, _, _) when best_rate >= rate -> ()
            | _ -> Hashtbl.replace best inflight (wall, rate, plat, failures))
          engines
      done;
      let sweep =
        List.map
          (fun inflight ->
            let wall, rate, plat, failures = Hashtbl.find best inflight in
            (inflight, wall, rate, plat, failures))
          levels
      in
      (* the live history (all trials) must check out *)
      let violations =
        List.length
          (Net.Protocols.check
             (Net.Protocols.semantics protocol)
             (Net.Cluster.history cluster))
      in
      let reads_return_written = !mismatches = 0 && !failures_total = 0 in
      let rate_at k =
        List.find_map
          (fun (i, _, r, _, _) -> if i = k then Some r else None)
          sweep
      in
      (* requests per read, untimed *)
      let window_reqs =
        requests_per_read ~transport ~protocol ~cfg ~levels
          ~n:(Stdlib.min 500 ops)
      in
      Exp_common.note "  requests/read: %s"
        (String.concat ", "
           (List.map
              (fun (i, r) -> Printf.sprintf "inflight %d %.2f" i r)
              window_reqs));
      Printf.bprintf buf "  \"pipelined\": [\n";
      List.iteri
        (fun i (inflight, wall, rate, plat, failures) ->
          Printf.bprintf buf
            "    { \"max_inflight\": %d, \"ops\": %d, \"wall_s\": %.4f, \
             \"ops_per_s\": %.1f, \"failures\": %d, \"requests_per_read\": \
             %.2f,\n      "
            inflight ops wall rate failures
            (List.assoc inflight window_reqs);
          Exp_common.summary_json buf "latency" plat;
          Printf.bprintf buf " }%s\n"
            (if i = List.length sweep - 1 then "" else ","))
        sweep;
      Printf.bprintf buf "  ],\n";
      (match (rate_at 1, rate_at 16) with
      | Some r1, Some r16 when r1 > 0. ->
          Printf.bprintf buf "  \"speedup_16_vs_1\": %.2f,\n" (r16 /. r1)
      | _ -> ());
      Printf.bprintf buf
        "  \"reads_return_written\": %b,\n  \"violations\": %d\n}\n"
        reads_return_written violations);
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
