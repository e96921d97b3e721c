(* E15 -- pipelined wire throughput: the in-flight operation window.

   The paper fixes a robust READ at two round-trips (one on the fast
   path), so once latency is wire-bound, throughput is decided by how
   many of those round-trips the runtime keeps in flight.  E15 measures
   exactly that: the serial client (one op at a time, the E14 baseline)
   against pipelined reads at max_inflight in E15_INFLIGHT, all through
   the one client engine.

   On a loopback cluster (safe protocol, S=4 t=1 b=0):

   1. serial baseline: E15_OPS reads through Cluster.read, wall-clock
      ops/s and p50/p99 latency;
   2. pipelined sweep: E15_OPS reads through Cluster.read_pipelined at
      each window size, same measures, plus failure counts;
   3. correctness: every pipelined op must return the value the serial
      reads returned (matches_serial) and the full recorded history must
      pass the safety/regularity checkers (violations = 0);
   4. requests per read for the serial row and every window, counted on
      a second cluster with metrics on, so the registry's cost stays out
      of the timed rows.

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

(* Read requests the clients put on the wire per read: one serial row,
   then one per window, [n] reads each, on a cluster with metrics on. *)
let requests_per_read ~transport ~protocol ~cfg ~levels ~n =
  let c =
    Net.Cluster.start ~metrics:true ~transport ~protocol ~cfg ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      ignore
        (ok_exn "metered write" (Net.Cluster.write c (Core.Value.v "e15")));
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
      let per_read f =
        let before = sent () in
        f ();
        float_of_int (sent () - before) /. float_of_int n
      in
      let serial =
        per_read (fun () ->
            for _ = 1 to n do
              ignore
                (ok_exn "metered serial read" (Net.Cluster.read c ~reader:1))
            done)
      in
      let windows =
        List.map
          (fun inflight ->
            (* build this window's client first: a rebuild drops the old
               client's registry from the cluster's merged metrics *)
            ignore (Net.Cluster.read_pipelined c ~inflight ~ops:0);
            ( inflight,
              per_read (fun () ->
                  Array.iter
                    (fun r -> ignore (ok_exn "metered pipelined read" r))
                    (Net.Cluster.read_pipelined c ~inflight ~ops:n)) ))
          levels
      in
      (serial, windows))

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
  let cluster = Net.Cluster.start ~transport ~protocol ~cfg ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop cluster)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write cluster (Core.Value.v "e15")) in
      (* warm the serial path before timing it: connections, automata,
         and branch caches are cold on the first ops *)
      for i = 1 to 100 do
        ignore
          (ok_exn
             (Printf.sprintf "serial warmup %d" i)
             (Net.Cluster.read cluster ~reader:1))
      done;
      (* 1. serial baseline, best of [trials] *)
      let measure_serial () =
        let slat = Stats.Summary.create () in
        let t0 = Exp_common.now_s () in
        for i = 1 to ops do
          let o =
            ok_exn
              (Printf.sprintf "serial read %d" i)
              (Net.Cluster.read cluster ~reader:1)
          in
          Stats.Summary.add_int slat o.latency_us
        done;
        let wall = Exp_common.now_s () -. t0 in
        (wall, float_of_int ops /. wall, slat)
      in
      let serial_wall, serial_rate, slat =
        let best = ref (measure_serial ()) in
        for _ = 2 to trials do
          let (_, rate, _) as m = measure_serial () in
          let _, best_rate, _ = !best in
          if rate > best_rate then best := m
        done;
        !best
      in
      (* 2. pipelined sweep: [trials] full passes over the window levels
         (interleaved, so machine drift hits all levels alike); per
         level, keep the fastest pass *)
      let mismatches = ref 0 in
      let failures_total = ref 0 in
      let best = Hashtbl.create 8 in
      for trial = 1 to trials do
        List.iter
          (fun inflight ->
            let plat = Stats.Summary.create () in
            let failures = ref 0 in
            (* untimed warmup at this window size: builds the client
               (connections + hellos) outside the timing window *)
            Array.iter
              (function
                | Ok (_ : Net.Client.outcome) -> () | Error _ -> incr failures)
              (Net.Cluster.read_pipelined cluster ~inflight
                 ~ops:(Stdlib.min 200 ops));
            let t0 = Exp_common.now_s () in
            let results = Net.Cluster.read_pipelined cluster ~inflight ~ops in
            let wall = Exp_common.now_s () -. t0 in
            Array.iter
              (function
                | Ok (o : Net.Client.outcome) -> (
                    Stats.Summary.add_int plat o.latency_us;
                    match o.value with
                    | Some (Core.Value.V "e15") -> ()
                    | Some _ | None -> incr mismatches)
                | Error e ->
                    incr failures;
                    Printf.eprintf "E15: pipelined read failed: %s\n" e)
              results;
            failures_total := !failures_total + !failures;
            let rate = float_of_int ops /. wall in
            Exp_common.note
              "  trial=%d inflight=%-3d %8.0f ops/s  p50=%.0fus p99=%.0fus  \
               (serial %.0f ops/s)"
              trial inflight rate
              (Stats.Summary.percentile plat 50.)
              (Stats.Summary.percentile plat 99.)
              serial_rate;
            match Hashtbl.find_opt best inflight with
            | Some (_, best_rate, _, _) when best_rate >= rate -> ()
            | _ -> Hashtbl.replace best inflight (wall, rate, plat, !failures))
          levels
      done;
      let sweep =
        List.map
          (fun inflight ->
            let wall, rate, plat, failures = Hashtbl.find best inflight in
            (inflight, wall, rate, plat, failures))
          levels
      in
      (* 3. correctness: the live history (all trials) must check out *)
      let history = Net.Cluster.history cluster in
      let violations =
        (if Histories.Checks.is_safe ~equal:String.equal history then 0 else 1)
        + if Histories.Checks.is_regular ~equal:String.equal history then 0
          else 1
      in
      let matches_serial = !mismatches = 0 && !failures_total = 0 in
      let rate_at k =
        List.find_map
          (fun (i, _, r, _, _) -> if i = k then Some r else None)
          sweep
      in
      (* 4. requests per read, untimed *)
      let serial_reqs, window_reqs =
        requests_per_read ~transport ~protocol ~cfg ~levels
          ~n:(Stdlib.min 500 ops)
      in
      Exp_common.note "  requests/read: serial %.2f, %s" serial_reqs
        (String.concat ", "
           (List.map
              (fun (i, r) -> Printf.sprintf "inflight %d %.2f" i r)
              window_reqs));
      Printf.bprintf buf
        "  \"serial\": { \"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": %.1f, \
         \"requests_per_read\": %.2f,\n    "
        ops serial_wall serial_rate serial_reqs;
      Exp_common.summary_json buf "latency" slat;
      Printf.bprintf buf " },\n  \"pipelined\": [\n";
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
      (match rate_at 16 with
      | Some r16 when serial_rate > 0. ->
          Printf.bprintf buf "  \"speedup_16_vs_serial\": %.2f,\n"
            (r16 /. serial_rate)
      | _ -> ());
      Printf.bprintf buf
        "  \"matches_serial\": %b,\n  \"violations\": %d\n}\n" matches_serial
        violations);
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
