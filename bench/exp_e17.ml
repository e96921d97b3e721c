(* E17 -- the 1-vs-2-round separation on real sockets.

   Proposition 1 proves no robust register can serve all-fast reads
   below S = 2t+2b+1; §5.1 plus the cached/suffix variant makes reads
   one-round AT the bound.  E17 demonstrates both halves of that claim
   live: the same regular-gc protocol (cached readers, suffix replies,
   opportunistic round-1 decision gated on fast_read_admissible) runs on
   a loopback cluster at

     S = 2t+b+1    (optimal for correctness, below the fast bound:
                    every read MUST take two rounds), and
     S = 2t+2b+1   (the fast-read bound: reads decide after round 1
                    whenever the candidate set already decides).

   Per configuration it sweeps write contention — a writer thread issues
   W concurrent writes while the reader runs E17_READS reads — and
   reports rounds-per-read (from the automaton-reported outcome.rounds),
   the op.fast_reads / op.fallback_rounds counter pair, the Read2
   requests the client sent per read (wire.read.r2.req.sent), read
   p50/p99, and full safety/regularity checking of the recorded history.

   Expected shape: rounds_per_read = 2.000 exactly at S = 2t+b+1 at
   every contention level (the gate never opens), ~1.0 at S = 2t+2b+1
   under low contention, drifting toward 2 only as fallbacks appear.
   Read2 requests per read are S−t (plus any widenings, DESIGN §17) at
   S = 2t+b+1 and 0 for the uncontended S = 2t+2b+1 cell: a decided
   read sends no round 2.
   Violations must be 0 everywhere — the fast path is opportunistic,
   never speculative.

   One JSON artifact: BENCH_e17.json.  Environment-tunable:
     E17_READS        (400)            reads per cell
     E17_WRITE_LEVELS (0,8,32)         concurrent writes during the reads
     E17_T, E17_B     (1, 1)           resilience budget
     E17_TRANSPORT    (unix)           loopback transport: unix | tcp
     E17_OUT          (BENCH_e17.json) output path *)

let getenv_int ?(min = 1) name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ ->
          Printf.eprintf "%s expects an integer >= %d (got %S)\n" name min s;
          exit 2)
  | None -> default

let write_levels () =
  match Sys.getenv_opt "E17_WRITE_LEVELS" with
  | None -> [ 0; 8; 32 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some n when n >= 0 -> n
             | _ ->
                 Printf.eprintf "E17_WRITE_LEVELS: cannot parse %S\n" s;
                 exit 2)

let transport () =
  match Sys.getenv_opt "E17_TRANSPORT" with
  | None -> `Unix
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "E17_TRANSPORT expects tcp or unix (got %S)\n" s;
          exit 2)

let ok_exn what = function
  | Ok o -> o
  | Error e ->
      Printf.eprintf "E17: %s failed: %s\n" what e;
      exit 1

let quantile_or_zero h p =
  match h with
  | Some h when Obs.Metrics.Histogram.count h > 0 ->
      Obs.Metrics.Histogram.quantile h p
  | _ -> 0.

(* One cell: a fresh cluster (clean history and registry), an initial
   write plus a cache-warming read, then [reads] measured reads with
   [writes] concurrent writes racing them from a second thread. *)
let run_cell ~transport ~cfg ~reads ~writes =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let cluster =
    Net.Cluster.start ~metrics:true ~transport ~protocol ~cfg ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop cluster)
    (fun () ->
      let _ = ok_exn "initial write" (Net.Cluster.write cluster (Core.Value.v "e17.v0")) in
      let _ = ok_exn "warm read" (Net.Cluster.read cluster ~reader:1) in
      let read2_sent () =
        Obs.Metrics.counter_value
          (Option.get (Net.Cluster.metrics cluster))
          "wire.read.r2.req.sent"
      in
      let read2_before = read2_sent () in
      let writer =
        if writes = 0 then None
        else
          Some
            (Thread.create
               (fun () ->
                 for i = 1 to writes do
                   (match
                      Net.Cluster.write cluster
                        (Core.Value.v (Printf.sprintf "e17.v%d" i))
                    with
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
        let o =
          ok_exn (Printf.sprintf "read %d" i) (Net.Cluster.read cluster ~reader:1)
        in
        round_sum := !round_sum + o.Net.Client.rounds;
        if o.Net.Client.rounds < !min_rounds then min_rounds := o.Net.Client.rounds;
        if o.Net.Client.rounds > !max_rounds then max_rounds := o.Net.Client.rounds
      done;
      (match writer with Some th -> Thread.join th | None -> ());
      let read2_per_read =
        float_of_int (read2_sent () - read2_before) /. float_of_int reads
      in
      let history = Net.Cluster.history cluster in
      let violations =
        (if Histories.Checks.is_safe ~equal:String.equal history then 0 else 1)
        + if Histories.Checks.is_regular ~equal:String.equal history then 0
          else 1
      in
      let reg = Option.get (Net.Cluster.metrics cluster) in
      let lat = Obs.Metrics.find_histogram reg "op.read.latency_us" in
      ( float_of_int !round_sum /. float_of_int reads,
        !min_rounds,
        !max_rounds,
        Obs.Metrics.counter_value reg "op.fast_reads",
        Obs.Metrics.counter_value reg "op.fallback_rounds",
        quantile_or_zero lat 50.,
        quantile_or_zero lat 99.,
        read2_per_read,
        violations ))

let run () =
  let reads = getenv_int "E17_READS" 400 in
  let t = getenv_int "E17_T" 1 in
  let b = getenv_int "E17_B" 1 in
  let out = Option.value (Sys.getenv_opt "E17_OUT") ~default:"BENCH_e17.json" in
  let levels = write_levels () in
  let transport = transport () in
  let transport_name = match transport with `Tcp -> "tcp" | `Unix -> "unix" in
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
  (* (fast-config uncontended rpr, slow-config worst min/max rounds) *)
  let fast_uncontended_rpr = ref nan in
  let fast_uncontended_read2 = ref nan in
  let slow_all_two = ref true in
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
          if (not admissible) && (rmin <> 2 || rmax <> 2) then
            slow_all_two := false;
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
  (* CI-grepable verdicts: the fast config must average strictly under 2
     rounds uncontended (in practice ~1.0) and put no Read2 on the wire
     there, the slow config must never leave 2, and no history may
     violate safety or regularity. *)
  Printf.bprintf buf
    "  ],\n  \"fast_engaged\": %b,\n  \"fast_reads_one_round_on_wire\": %b,\n  \
     \"slow_always_two_rounds\": %b,\n  \"total_violations\": %d\n}\n"
    (!fast_uncontended_rpr < 2.0)
    (!fast_uncontended_read2 = 0.0)
    !slow_all_two !total_violations;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
