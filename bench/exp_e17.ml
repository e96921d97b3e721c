(* E17 -- where the 1-vs-2-round separation lives.

   Proposition 1 proves that below S = 2t+2b+1 not EVERY read can be
   one round; it does not make any particular read take two.  The
   regular-gc protocol (cached readers, suffix replies) applies Figure
   6's decision to round-1 evidence at every S, and a decided read sends
   no Read2.  So E17 runs two kinds of cells.

   Live cells, on a loopback cluster, at

     S = 2t+b+1    (optimal resilience: a read decides on round 1
                    unless a lie or an overlapping write blocks it), and
     S = 2t+2b+1   (every read decides on round 1, lies included).

   Per configuration it sweeps write contention — a writer thread issues
   W concurrent writes while the reader runs E17_READS reads — and
   reports rounds-per-read (from the automaton-reported outcome.rounds),
   the op.fast_reads / op.fallback_rounds counter pair, the Read2
   requests the client sent per read (wire.read.r2.req.sent), read
   p50/p99, and the run judged by regular-gc's row of the protocol
   table: regularity, and at most 2 rounds per op.
   No live object lies, so every live cell is expected at ~1.0 rounds
   per read, and the uncontended S = 2t+b+1 cell at exactly 1 with no
   Read2 on the wire.

   Simulator cells, since live objects cannot lie yet: the same protocol
   in the discrete-event simulator with object 1 forging a high history
   entry, one write, then E17_READS sequential reads under uniform
   delays.  Whenever the forger is among a read's first S−t responders
   at S = 2t+b+1, the forgery is neither safe (one voucher) nor dropped
   (t+b dissenters) and the read runs round 2 — Proposition 1's case.
   At S = 2t+2b+1 the same lie is dropped on round 1, so no read takes
   two rounds.

   Violations must be 0 everywhere — the round-1 decision is
   opportunistic, never speculative.

   One JSON artifact: BENCH_e17.json.  Environment-tunable:
     E17_READS        (400)            reads per cell
     E17_WRITE_LEVELS (0,8,32)         concurrent writes during the reads
     E17_T, E17_B     (1, 1)           resilience budget
     E17_TRANSPORT    (unix)           loopback transport: unix | tcp
     E17_OUT          (BENCH_e17.json) output path *)

let ok_exn what r = Exp_common.ok_exn "E17" what r

(* One cell: a fresh cluster (clean history and registry), an initial
   write plus a cache-warming read, then [reads] measured reads with
   [writes] concurrent writes racing them from a second thread. *)
let run_cell ~transport ~cfg ~reads ~writes =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let cluster =
    Net.Cluster.start ~transport ~protocol ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop cluster)
    (fun () ->
      let writer, readers = Net.Cluster.processes cluster ~readers:1 in
      let write v = Exp_common.run_one writer (Exp_common.write0 v) in
      let read () = Exp_common.run_one readers.(0) Exp_common.read0 in
      let _ = ok_exn "initial write" (write "e17.v0") in
      let _ = ok_exn "warm read" (read ()) in
      let read2_sent () =
        Obs.Metrics.counter_value
          (Net.Cluster.metrics cluster)
          "wire.read.r2.req.sent"
      in
      let read2_before = read2_sent () in
      let writer_th =
        if writes = 0 then None
        else
          Some
            (Thread.create
               (fun () ->
                 for i = 1 to writes do
                   (match write (Printf.sprintf "e17.v%d" i) with
                   | Ok _ -> ()
                   | Error e ->
                       Printf.eprintf "E17: concurrent write %d failed: %s\n" i e;
                       exit 1);
                   (* spread the writes across the read window so
                      contention is sustained, not front-loaded *)
                   Thread.delay 0.001
                 done)
               ())
      in
      let round_sum = ref 0 in
      let min_rounds = ref max_int in
      let max_rounds = ref 0 in
      for i = 1 to reads do
        let o = ok_exn (Printf.sprintf "read %d" i) (read ()) in
        round_sum := !round_sum + o.Net.Client.rounds;
        if o.Net.Client.rounds < !min_rounds then min_rounds := o.Net.Client.rounds;
        if o.Net.Client.rounds > !max_rounds then max_rounds := o.Net.Client.rounds
      done;
      (match writer_th with Some th -> Thread.join th | None -> ());
      let read2_per_read =
        float_of_int (read2_sent () - read2_before) /. float_of_int reads
      in
      let ran = 2 + reads + writes in
      let violations =
        Fault.Campaign.breaches
          (Exp_common.judge_cluster Regular_gc cluster ~completed:ran
             ~total:ran)
      in
      let reg = Net.Cluster.metrics cluster in
      let lat = Obs.Metrics.find_histogram reg "op.read.latency_us" in
      ( float_of_int !round_sum /. float_of_int reads,
        !min_rounds,
        !max_rounds,
        Obs.Metrics.counter_value reg "op.fast_reads",
        Obs.Metrics.counter_value reg "op.fallback_rounds",
        Exp_common.quantile_or_zero lat 50.,
        Exp_common.quantile_or_zero lat 99.,
        read2_per_read,
        violations ))

module Gc_sim = Core.Scenario.Make (Core.Proto_regular_gc.Make (struct
  let readers = 1
end))

(* One simulator cell: object 1 forges a history entry above every
   timestamp it has seen into each reply to a reader; one write, then
   [reads] reads, one every 100 time units, under uniform 1-10 delays. *)
let sim_forger_cell ~cfg ~reads =
  let sched =
    (0, Core.Schedule.Write (Core.Value.v "e17.v1"))
    :: List.init reads (fun i ->
           (100 * (i + 1), Core.Schedule.Read { reader = 1 }))
  in
  let faults =
    [
      Gc_sim.Byzantine
        {
          obj = 1;
          factory =
            Fault.Strategies.forge_history ~value:"e17.ghost" ~ts_boost:5;
        };
    ]
  in
  let rep =
    Gc_sim.run ~cfg ~seed:17 ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10) ~faults
      sched
  in
  let completed = Histories.Op.completed rep.history in
  let rounds =
    List.filter_map
      (fun (op : string Histories.Op.t) ->
        if Histories.Op.is_read op then op.rounds else None)
      completed
  in
  let n = List.length rounds in
  let violations =
    (if rep.quiescent then 0 else 1)
    + Fault.Campaign.breaches
        (Fault.Campaign.judge Regular_gc ~quiescent:rep.quiescent
           ~completed:(List.length completed) ~total:(List.length sched)
           [ (0, rep.history) ])
  in
  ( float_of_int (List.fold_left ( + ) 0 rounds) /. float_of_int (max 1 n),
    List.fold_left min max_int rounds,
    List.fold_left max 0 rounds,
    violations )

let run () =
  let reads = Exp_common.getenv_int "E17_READS" 400 in
  let t = Exp_common.getenv_int "E17_T" 1 in
  let b = Exp_common.getenv_int "E17_B" 1 in
  let out = Option.value (Sys.getenv_opt "E17_OUT") ~default:"BENCH_e17.json" in
  let levels =
    Exp_common.getenv_list "E17_WRITE_LEVELS" [ 0; 8; 32 ] (fun x ->
        match int_of_string_opt x with Some n when n >= 0 -> Some n | _ -> None)
  in
  let transport = Exp_common.transport "E17_TRANSPORT" ~default:`Unix in
  let transport_name = Exp_common.transport_name transport in
  let s_slow = (2 * t) + b + 1 in
  let s_fast = (2 * t) + (2 * b) + 1 in
  Exp_common.note
    "E17: fast-read separation (regular-gc, S=%d vs S=%d, t=%d b=%d, %d \
     reads/cell, %s loopback)"
    s_slow s_fast t b reads transport_name;
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e17\",\n  \"protocol\": \"regular-gc\",\n  \
     \"transport\": \"%s\",\n  \"t\": %d, \"b\": %d,\n  \"reads\": %d,\n  \
     \"configs\": [\n"
    transport_name t b reads;
  let fast_uncontended_rpr = ref nan in
  let fast_uncontended_read2 = ref nan in
  let slow_uncontended_one = ref false in
  let total_violations = ref 0 in
  List.iteri
    (fun si s ->
      let cfg = Quorum.Config.make_exn ~s ~t ~b in
      let admissible = Quorum.Config.fast_read_admissible cfg in
      Printf.bprintf buf
        "    { \"s\": %d, \"fast_admissible\": %b,\n      \"cells\": [\n" s
        admissible;
      List.iteri
        (fun li writes ->
          let rpr, rmin, rmax, fast, fallback, p50, p99, r2pr, violations =
            run_cell ~transport ~cfg ~reads ~writes
          in
          total_violations := !total_violations + violations;
          if admissible && writes = 0 then begin
            fast_uncontended_rpr := rpr;
            fast_uncontended_read2 := r2pr
          end;
          if (not admissible) && writes = 0 then
            slow_uncontended_one := rmin = 1 && rmax = 1 && r2pr = 0.0;
          Exp_common.note
            "  S=%d writes=%-3d rounds/read=%.3f (min=%d max=%d) fast=%d \
             fallback=%d  read2/read=%.3f  p50=%.0fus p99=%.0fus  \
             violations=%d"
            s writes rpr rmin rmax fast fallback r2pr p50 p99 violations;
          Printf.bprintf buf
            "        { \"concurrent_writes\": %d, \"reads\": %d,\n\
            \          \"rounds_per_read\": %.3f, \"min_rounds\": %d, \
             \"max_rounds\": %d,\n\
            \          \"fast_reads\": %d, \"fallback_rounds\": %d,\n\
            \          \"read_r2_reqs_per_read\": %.3f,\n\
            \          \"read_p50_us\": %.0f, \"read_p99_us\": %.0f, \
             \"violations\": %d }%s\n"
            writes reads rpr rmin rmax fast fallback r2pr p50 p99 violations
            (if li = List.length levels - 1 then "" else ","))
        levels;
      Printf.bprintf buf "      ] }%s\n"
        (if si = 1 then "" else ","))
    [ s_slow; s_fast ];
  Printf.bprintf buf "  ],\n  \"sim_forger\": [\n";
  let forced = ref [] in
  List.iteri
    (fun si s ->
      let cfg = Quorum.Config.make_exn ~s ~t ~b in
      let rpr, rmin, rmax, violations = sim_forger_cell ~cfg ~reads in
      total_violations := !total_violations + violations;
      forced := (s, rmax) :: !forced;
      Exp_common.note
        "  sim S=%d object 1 forges: rounds/read=%.3f (min=%d max=%d)  \
         violations=%d"
        s rpr rmin rmax violations;
      Printf.bprintf buf
        "    { \"s\": %d, \"reads\": %d, \"rounds_per_read\": %.3f, \
         \"min_rounds\": %d, \"max_rounds\": %d, \"violations\": %d }%s\n"
        s reads rpr rmin rmax violations
        (if si = 1 then "" else ","))
    [ s_slow; s_fast ];
  (* CI-grepable verdicts: with no lie, the fast config must average
     strictly under 2 rounds uncontended (in practice exactly 1) and put
     no Read2 on the wire there, and so must the uncontended slow config;
     a forging object must push some simulated reads to round 2 below
     the bound and none at it; no history may violate regularity. *)
  Printf.bprintf buf
    "  ],\n  \"fast_engaged\": %b,\n  \"fast_reads_one_round_on_wire\": %b,\n  \
     \"optimal_resilience_one_round\": %b,\n  \
     \"lie_forces_two_rounds_below_bound\": %b,\n  \
     \"total_violations\": %d\n}\n"
    (!fast_uncontended_rpr < 2.0)
    (!fast_uncontended_read2 = 0.0)
    !slow_uncontended_one
    (List.assoc s_slow !forced = 2 && List.assoc s_fast !forced = 1)
    !total_violations;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
