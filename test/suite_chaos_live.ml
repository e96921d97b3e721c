(* Cross-backend chaos: the same Fault.Plan values driving the simulator
   and a live socket cluster (ISSUE 6).

   The acceptance bar: one plan value runs unchanged on both backends
   and yields survival matrices in the same schema, and a counterexample
   found against real sockets replays deterministically in the simulator
   — the shrunk witness is byte-identical across two replays.  Plus the
   Cluster.crash/restart edge cases: double-crash, restart-while-alive
   as a structured error, wiped restarts observably losing state, a
   crash inside an inflight=16 pipelined window, and beyond-t crashes
   timing out (with op.reconnects counted) then recovering. *)

let cfg4 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

let value_of (o : Net.Client.outcome) =
  match o.value with
  | Some v -> Core.Value.to_string v
  | None -> "<none>"

(* Fast live opts for tests: tiny ticks, still patient enough that
   within-budget plans never time operations out. *)
let fast_live =
  {
    Net.Live.default_opts with
    tick_us = 200;
    client = { Net.Client.deadline = 0.2; retries = 5; backoff = 0.02 };
  }

(* Impatient opts for runs that are SUPPOSED to time out. *)
let impatient =
  {
    Net.Live.default_opts with
    tick_us = 100;
    client = { Net.Client.deadline = 0.05; retries = 1; backoff = 0.01 };
  }

(* ----- Cluster.crash/restart edge cases ---------------------------------- *)

let restart_alive_is_structured_error () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      (match Net.Cluster.restart c 2 with
      | Error (`Still_alive 2) -> ()
      | Ok () -> Alcotest.fail "restart of a live server must not succeed"
      | Error (`Still_alive i) -> Alcotest.failf "wrong index %d" i);
      (match Net.Cluster.restart_exn c 2 with
      | () -> Alcotest.fail "restart_exn of a live server must raise"
      | exception Invalid_argument _ -> ());
      Net.Cluster.crash c 2;
      match Net.Cluster.restart c 2 with
      | Ok () -> ()
      | Error (`Still_alive _) -> Alcotest.fail "restart after crash must succeed")

let double_crash_is_idempotent () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "d1") in
      Net.Cluster.crash c 4;
      Net.Cluster.crash c 4;
      (* idempotent, and the quorum still answers *)
      let o = ok_exn "read with double-crashed minority" (Live_ops.read e) in
      Alcotest.(check string) "value" "d1" (value_of o);
      ok_exn "restart after double crash"
        (Result.map_error
           (fun (`Still_alive i) -> Printf.sprintf "still alive %d" i)
           (Net.Cluster.restart c 4)))

let wiped_restart_loses_state () =
  (* A single-object system (s = 1, t = b = 0) makes persistence
     directly observable: no quorum hides the wiped replica. *)
  let cfg1 = Quorum.Config.make_exn ~s:1 ~t:0 ~b:0 in
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write v1" (Live_ops.write e "v1") in
      let o = ok_exn "read v1" (Live_ops.read e) in
      Alcotest.(check string) "before crash" "v1" (value_of o);
      Net.Cluster.crash c 1;
      ok_exn "wiped restart"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart ~wipe:true c 1));
      let o = ok_exn "read after wipe" (Live_ops.read e) in
      Alcotest.(check bool) "wiped replica forgot v1" false (value_of o = "v1");
      let _ = ok_exn "write v2" (Live_ops.write e "v2") in
      Net.Cluster.crash c 1;
      ok_exn "persisted restart"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart c 1));
      let o = ok_exn "read after persisted restart" (Live_ops.read e) in
      Alcotest.(check string) "persisted replica kept v2" "v2" (value_of o))

let crash_mid_pipelined_window () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.5; retries = 8; backoff = 0.01 }
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let lanes = Net.Cluster.engine ~lanes:16 c in
      let _ = ok_exn "write" (Live_ops.write e "p1") in
      (* Kill a server while the 16-wide window is in flight; t = 1, so
         every op must still complete. *)
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.02;
            Net.Cluster.crash c 3)
          ()
      in
      let results = Live_ops.reads lanes 200 in
      Thread.join killer;
      let failures =
        Array.to_list results
        |> List.filter_map (function Ok _ -> None | Error e -> Some e)
      in
      Alcotest.(check (list string)) "no failed ops across the crash" [] failures;
      ok_exn "restart after window"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart c 3));
      let equal = String.equal in
      Alcotest.(check int) "live history stays safe" 0
        (List.length (Histories.Checks.check_safety ~equal (Net.Cluster.history c))))

(* ----- fast reads under chaos (ISSUE 7) ---------------------------------- *)

let cfg_gc_slow = Quorum.Config.optimal ~t:1 ~b:1 (* S = 2t+b+1 = 4 *)

let cfg_gc_fast = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 (* S = 2t+2b+1 *)

(* Crash a base object while an inflight=16 window of fast reads is
   running at S = 2t+2b+1: the opportunistic round-1 decision must
   degrade (2 rounds at worst, the Fig. 6 fallback), never fail an op
   and never surface a value that violates safety or regularity. *)
let crash_mid_fast_read_window () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.5; retries = 8; backoff = 0.01 }
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg:cfg_gc_fast ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let lanes = Net.Cluster.engine ~lanes:16 c in
      let _ = ok_exn "write" (Live_ops.write e "f1") in
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.02;
            Net.Cluster.crash c 3)
          ()
      in
      let results = Live_ops.reads lanes 200 in
      Thread.join killer;
      let outcomes =
        Array.to_list results
        |> List.map (function
             | Ok o -> o
             | Error e -> Alcotest.failf "fast read failed across crash: %s" e)
      in
      List.iter
        (fun (o : Net.Client.outcome) ->
          Alcotest.(check bool)
            (Printf.sprintf "reported rounds in {1,2} (got %d)" o.rounds)
            true
            (o.rounds = 1 || o.rounds = 2))
        outcomes;
      ok_exn "restart after window"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart c 3));
      let equal = String.equal in
      let h = Net.Cluster.history c in
      Alcotest.(check bool) "history safe across the crash" true
        (Histories.Checks.is_safe ~equal h);
      Alcotest.(check bool) "history regular across the crash" true
        (Histories.Checks.is_regular ~equal h))

(* Below the Proposition 1 bound (S = 2t+b+1 < 2t+2b+1) not every read
   can be one round: one facing a lie or an overlapping write may need
   round 2.  Only S >= 2t+2b+1 makes every read one round despite b
   lies.  A crash is no lie: the write reached S-t objects, so any S-t
   responders hold it at S-2t = b+1 of them and it is safe on round-1
   evidence.  Crash and recover an object mid-window with no write in
   flight, and require every read to stay regular and report 1 round. *)
let below_bound_crash_keeps_one_round () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.5; retries = 8; backoff = 0.01 }
      ~protocol:(Net.Protocols.regular_gc ~readers:1)
      ~cfg:cfg_gc_slow ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let lanes = Net.Cluster.engine ~lanes:16 c in
      let _ = ok_exn "write" (Live_ops.write e "s1") in
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.02;
            Net.Cluster.crash c 2;
            Thread.delay 0.05;
            Net.Cluster.restart_exn c 2)
          ()
      in
      let results = Live_ops.reads lanes 200 in
      Thread.join killer;
      Array.iteri
        (fun i r ->
          match r with
          | Error e -> Alcotest.failf "read %d failed: %s" i e
          | Ok (o : Net.Client.outcome) ->
              Alcotest.(check int)
                (Printf.sprintf "read %d reports 1 round" i)
                1 o.rounds)
        results;
      let equal = String.equal in
      Alcotest.(check bool) "history regular below the bound" true
        (Histories.Checks.is_regular ~equal (Net.Cluster.history c)))

let beyond_t_crashes_timeout_then_recover () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.05; retries = 1; backoff = 0.01 }
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "b1") in
      (* Two simultaneous crashes at t = 1: the quorum S - t = 3 cannot
         assemble, so the read must time out rather than hang or lie. *)
      Net.Cluster.crash c 1;
      Net.Cluster.crash c 2;
      (match Live_ops.read e with
      | Ok o -> Alcotest.failf "read succeeded beyond t: %s" (value_of o)
      | Error _ -> ());
      (* The failed attempts surfaced as a counter, not only stderr. *)
      Alcotest.(check bool) "op.reconnects counted" true
        (Obs.Metrics.counter_value (Net.Cluster.metrics c) "op.reconnects" > 0);
      ok_exn "restart 1"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart c 1));
      ok_exn "restart 2"
        (Result.map_error (fun _ -> "still alive") (Net.Cluster.restart c 2));
      (* The parked operation resumes and completes once the quorum is
         back. *)
      let o = ok_exn "read after recovery" (Live_ops.read e) in
      Alcotest.(check string) "recovered value" "b1" (value_of o))

(* ----- fault rules at the servers ---------------------------------------- *)

let rule ?sender dir act =
  { Net.Chaos.dir; sender; from_us = 0; until_us = max_int; act }

let objects c =
  List.init (Array.length (Net.Cluster.endpoints c)) (fun i -> i + 1)

let total c field =
  List.fold_left (fun acc i -> acc + field (Net.Cluster.stats c i)) 0 (objects c)

let drop_rule_partitions_and_heals () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.05; retries = 1; backoff = 0.01 }
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let set rules =
        List.iter (fun i -> Net.Cluster.set_rules c i rules) (objects c)
      in
      set [ rule Net.Chaos.To_server Net.Chaos.Drop ];
      (match Live_ops.write e "w1" with
      | Ok _ -> Alcotest.fail "write through a total partition succeeded"
      | Error _ -> ());
      set [];
      (* A timed-out write is parked, not aborted (the paper's automata
         have no abort): the next write invocation resumes and completes
         the parked w1 — only the one after that writes w2. *)
      let _ = ok_exn "parked write completes after heal" (Live_ops.write e "w2") in
      let o = ok_exn "read after partition heals" (Live_ops.read e) in
      Alcotest.(check string) "parked w1 landed" "w1" (value_of o);
      let _ = ok_exn "fresh write after heal" (Live_ops.write e "w2") in
      let o = ok_exn "read fresh value" (Live_ops.read e) in
      Alcotest.(check string) "healed value" "w2" (value_of o);
      (* Five ops, four spans: the resuming write hands out none, since
         the parked round's span left with the write that timed out, and
         that span completed when the resumed round did. *)
      let spans = Net.Cluster.spans c in
      Alcotest.(check (list int)) "each span once, in start order"
        [ 0; 1; 2; 3 ]
        (List.map (fun (s : Obs.Span.t) -> s.id) spans);
      Alcotest.(check bool) "the parked write's span completed" true
        (List.for_all Obs.Span.completed spans);
      Alcotest.(check bool) "partition dropped frames" true
        (total c (fun s -> s.Net.Server.dropped) > 0))

(* Base objects keep per-reader round state, so engines of one cluster
   must never share a reader id; and a rule aimed at one paper process
   (Live's compiled link rules name the writer or reader j) must match
   that process's frames only, its connection Hello included. *)
let engines_keep_ids_and_attribution () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let writer, readers = Net.Cluster.processes c ~readers:2 in
      let lanes = Net.Cluster.engine ~lanes:4 c in
      (* Set before any engine dials object 1.  Object 1 answers every
         Hello and request it handles, and its answers to reader 2 would
         count as delayed: [delayed] staying 0 shows none of reader 2's
         frames was handled. *)
      let r2 = Sim.Proc_id.Reader 2 in
      Net.Cluster.set_rules c 1
        [
          rule ~sender:r2 Net.Chaos.To_server Net.Chaos.Drop;
          rule ~sender:r2 Net.Chaos.To_client (Net.Chaos.Delay 1);
        ];
      let run name e ops =
        let ids = ref [] in
        let on_event = function
          | Net.Client.Keyed.Invoke { reader; _ } -> ids := reader :: !ids
          | Net.Client.Keyed.Respond _ -> ()
        in
        Array.iteri
          (fun i r -> ignore (ok_exn (Printf.sprintf "%s op %d" name i) r))
          (Net.Cluster.run ~on_event e ops);
        List.sort_uniq compare !ids
      in
      let w_ids =
        run "writer" writer
          (Array.init 3 (fun i -> Live_ops.write0 (Printf.sprintf "w%d" i)))
      in
      let r1_ids = run "reader 1" readers.(0) (Array.make 5 Live_ops.read0) in
      let lane_ids = run "pipelined" lanes (Array.make 20 Live_ops.read0) in
      (* let late replies of widened rounds drain before counting *)
      Thread.delay 0.05;
      let before = Net.Cluster.stats c 1 in
      Alcotest.(check int) "no frame of w, r1 or the lanes dropped" 0
        before.Net.Server.dropped;
      Alcotest.(check bool) "their frames reached object 1" true
        (before.Net.Server.messages > 0);
      let r2_ids = run "reader 2" readers.(1) (Array.make 5 Live_ops.read0) in
      let after = Net.Cluster.stats c 1 in
      Alcotest.(check bool) "reader 2's frames dropped" true
        (after.Net.Server.dropped > 0);
      Alcotest.(check int) "nothing of reader 2's reached object 1"
        before.Net.Server.messages after.Net.Server.messages;
      Alcotest.(check int)
        "object 1 answered none of reader 2's frames, Hello included" 0
        after.Net.Server.delayed;
      Alcotest.(check (list int)) "the writer's events are writes" [ 0 ] w_ids;
      Alcotest.(check (list int)) "reader 1 keeps id 1" [ 1 ] r1_ids;
      Alcotest.(check (list int)) "reader 2 keeps id 2" [ 2 ] r2_ids;
      let all = [ w_ids; r1_ids; r2_ids; lane_ids ] in
      Alcotest.(check int) "reader ids pairwise disjoint"
        (List.length (List.concat all))
        (List.length (List.sort_uniq compare (List.concat all))))

(* Figure 3's objects answer only a fresh timestamp, so a retransmit of
   a request whose reply was lost is answered only by the server's
   resend of its last reply; without it, with one more object down, the
   read could never gather S-t replies.  Object 4 is crashed and object
   3's replies to the reader are lost for a window well inside the
   read's patience; the read completes from object 3's reply sent
   again. *)
let lost_reply_is_sent_again () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.1; retries = 8; backoff = 0.01 }
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let writer, readers = Net.Cluster.processes c ~readers:1 in
      let _ = ok_exn "write" (Live_ops.write writer "l1") in
      Net.Cluster.crash c 4;
      let now = Net.Cluster.now_us c in
      Net.Cluster.set_rules c 3
        [
          {
            (rule ~sender:(Sim.Proc_id.Reader 1) Net.Chaos.To_client Net.Chaos.Drop)
            with
            from_us = now;
            until_us = now + 500_000;
          };
        ];
      let o = ok_exn "read across the lost reply" (Live_ops.read readers.(0)) in
      Alcotest.(check string) "value" "l1" (value_of o);
      Alcotest.(check bool) "object 3's reply was lost" true
        ((Net.Cluster.stats c 3).Net.Server.dropped > 0))

let rules_survive_restart () =
  let c =
    Net.Cluster.start
      ~opts:{ Net.Client.deadline = 0.1; retries = 5; backoff = 0.01 }
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Live_ops.write (Net.Cluster.engine c) "k1") in
      Net.Cluster.set_rules c 2 [ rule Net.Chaos.To_server Net.Chaos.Drop ];
      Net.Cluster.crash c 2;
      Net.Cluster.restart_exn c 2;
      let before = Net.Cluster.stats c 2 in
      (* a fresh engine dials every object, so object 2 sees a Hello *)
      let o = ok_exn "read" (Live_ops.read (Net.Cluster.engine c)) in
      Alcotest.(check string) "value" "k1" (value_of o);
      let after = Net.Cluster.stats c 2 in
      Alcotest.(check bool) "the restarted object still drops" true
        (after.Net.Server.dropped > before.Net.Server.dropped);
      Alcotest.(check int) "and handles nothing" before.Net.Server.messages
        after.Net.Server.messages)

let cfg1 = Quorum.Config.make_exn ~s:1 ~t:0 ~b:0

let duplicated_request_is_handled_again () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let messages () = (Net.Cluster.stats c 1).Net.Server.messages in
      let m0 = messages () in
      let _ = ok_exn "write" (Live_ops.write e "d1") in
      let once = messages () - m0 in
      Net.Cluster.set_rules c 1
        [ rule Net.Chaos.To_server (Net.Chaos.Duplicate 2) ];
      let m1 = messages () in
      let _ = ok_exn "duplicated write" (Live_ops.write e "d2") in
      Alcotest.(check int) "every request handled 1+2 times" (3 * once)
        (messages () - m1);
      Alcotest.(check int) "two copies per request" (2 * once)
        (Net.Cluster.stats c 1).Net.Server.duplicated;
      Net.Cluster.set_rules c 1 [];
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check string) "value" "d2" (value_of o))

let corrupted_reply_is_a_decode_error () =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      Net.Cluster.set_rules c 1 [ rule Net.Chaos.To_client Net.Chaos.Corrupt ];
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "c1") in
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check string) "value" "c1" (value_of o);
      Alcotest.(check bool) "object 1 corrupted its replies" true
        ((Net.Cluster.stats c 1).Net.Server.corrupted > 0);
      let m = Net.Cluster.metrics c in
      Alcotest.(check bool) "the client could not decode them" true
        (Obs.Metrics.counter_value m "net.client.decode_errors" > 0))

let delayed_reply_leaves_late () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let e = Net.Cluster.engine c in
      let _ = ok_exn "write" (Live_ops.write e "y1") in
      let d = 30_000 in
      Net.Cluster.set_rules c 1 [ rule Net.Chaos.To_client (Net.Chaos.Delay d) ];
      let o = ok_exn "read" (Live_ops.read e) in
      Alcotest.(check string) "value" "y1" (value_of o);
      Alcotest.(check bool)
        (Printf.sprintf "the read waited out the delay (%d us)" o.latency_us)
        true (o.latency_us >= d);
      Alcotest.(check bool) "replies delayed" true
        ((Net.Cluster.stats c 1).Net.Server.delayed > 0))

(* ----- the same plan on both backends ------------------------------------ *)

let same_plan_runs_on_both_backends () =
  let plan =
    {
      Fault.Plan.horizon = 120;
      actions =
        [
          Crash { obj = 1; at = 10 };
          Recover { obj = 1; at = 60; wipe = false };
        ];
    }
  in
  let cfg = Fault.Campaign.default_cfg Fault.Campaign.Safe ~t:1 ~b:1 in
  Alcotest.(check bool) "plan within budget" true
    (Fault.Plan.within_budget ~cfg plan);
  let sim =
    match
      Fault.Campaign.run_plan_result Fault.Campaign.Safe ~cfg ~seed:42 plan
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "sim run errored: %s" e.Fault.Campaign.error
  in
  let live =
    match
      Fault.Campaign.run_plan_result
        ~backend:(Net.Live.backend ~opts:fast_live ())
        Fault.Campaign.Safe ~cfg ~seed:42 plan
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "live run errored: %s" e.Fault.Campaign.error
  in
  (* A within-budget crash/recover plan must be survived on BOTH
     backends — and judged by the same rule. *)
  Alcotest.(check bool) "sim survives" false
    (Fault.Campaign.breaches sim > 0);
  Alcotest.(check bool) "live survives" false
    (Fault.Campaign.breaches live > 0);
  Alcotest.(check int) "live completed everything" live.Fault.Campaign.total
    live.Fault.Campaign.completed

(* Extract the key names of a one-line JSON object, in order. *)
let json_keys line =
  let keys = ref [] in
  let n = String.length line in
  let rec scan i =
    if i >= n then ()
    else if line.[i] = '"' then (
      match String.index_from_opt line (i + 1) '"' with
      | None -> ()
      | Some j ->
          if j + 1 < n && line.[j + 1] = ':' then
            keys := String.sub line (i + 1) (j - i - 1) :: !keys;
          (* skip past any value string contents *)
          scan (j + 1))
    else scan (i + 1)
  in
  scan 0;
  List.rev !keys

let matrices_share_a_schema () =
  let seeds = [ 7 ] in
  let cell ?backend () =
    List.hd
      (Fault.Campaign.sweep ~jobs:1 ?backend ~budget:Fault.Plan.small
         ~plans_per_seed:1 ~protocols:[ Safe ] ~t:1 ~b:1 ~seeds ())
  in
  let sim_cell = cell () in
  let live_cell = cell ~backend:(Net.Live.backend ~opts:fast_live ()) () in
  (* Same campaign coordinates -> Plan.gen draws the SAME plan for both
     backends; the matrices must come out in the same schema. *)
  let sim_line = Fault.Campaign.matrix_jsonl ~backend:"sim" [ sim_cell ] in
  let live_line = Fault.Campaign.matrix_jsonl ~backend:"live" [ live_cell ] in
  Alcotest.(check (list string)) "identical JSONL schema"
    (json_keys sim_line) (json_keys live_line);
  Alcotest.(check string) "sim cell survives" "survives"
    (Fault.Campaign.cell_verdict sim_cell);
  Alcotest.(check string) "live cell survives" "survives"
    (Fault.Campaign.cell_verdict live_cell)

(* ----- live counterexample -> deterministic sim witness ------------------ *)

let live_witness_replays_deterministically () =
  (* Two crashes at t = 1 and nobody recovers: beyond budget, so the
     live run MUST lose wait-freedom — the counterexample we then hand
     to the simulator. *)
  let cfg = Quorum.Config.optimal ~t:1 ~b:0 in
  let plan =
    {
      Fault.Plan.horizon = 60;
      actions = [ Crash { obj = 1; at = 0 }; Crash { obj = 2; at = 0 } ];
    }
  in
  Alcotest.(check bool) "plan is beyond budget" false
    (Fault.Plan.within_budget ~cfg plan);
  let live =
    (Net.Live.backend ~opts:impatient ()).Fault.Campaign.backend_run
      Fault.Campaign.Safe ~cfg ~seed:11 plan
  in
  Alcotest.(check bool) "live run violates wait-freedom" true
    (live.Fault.Campaign.liveness > 0);
  (* The bridge, as chaos --backend=live runs it: the simulator
     reproduces the violation from the same coordinates... *)
  let repro = Fault.Campaign.violates Fault.Campaign.Safe ~cfg ~seed:11 in
  Alcotest.(check bool) "sim replay reproduces" true (repro plan);
  let sim () = Fault.Campaign.run_plan Fault.Campaign.Safe ~cfg ~seed:11 plan in
  Alcotest.(check bool) "sim replays are identical" true (sim () = sim ());
  (* ...and two independent shrink runs land on the byte-identical
     minimal witness. *)
  let s1 = Fault.Shrink.minimize ~repro plan
  and s2 = Fault.Shrink.minimize ~repro plan in
  Alcotest.(check string) "byte-identical shrunk witness"
    (Fault.Plan.to_compact s1.Fault.Shrink.plan)
    (Fault.Plan.to_compact s2.Fault.Shrink.plan);
  Alcotest.(check int) "same shrink trajectory" s1.Fault.Shrink.attempts
    s2.Fault.Shrink.attempts;
  (* The minimal witness still needs both crashes: either alone is
     within budget and survivable. *)
  Alcotest.(check int) "1-minimal witness keeps both crashes" 2
    (Fault.Plan.length s1.Fault.Shrink.plan)

let suite =
  ( "chaos-live",
    [
      Alcotest.test_case "restart of a live server is a structured error"
        `Quick restart_alive_is_structured_error;
      Alcotest.test_case "double crash is idempotent" `Quick
        double_crash_is_idempotent;
      Alcotest.test_case "wiped restart loses state, persisted keeps it"
        `Quick wiped_restart_loses_state;
      Alcotest.test_case "crash inside an inflight=16 pipelined window" `Slow
        crash_mid_pipelined_window;
      Alcotest.test_case "crash mid fast-read window falls back cleanly" `Slow
        crash_mid_fast_read_window;
      Alcotest.test_case "below 2t+2b+1 a crash keeps reads one round" `Slow
        below_bound_crash_keeps_one_round;
      Alcotest.test_case "beyond-t crashes time out, count reconnects, recover"
        `Quick beyond_t_crashes_timeout_then_recover;
      Alcotest.test_case "a drop rule at the servers partitions and heals"
        `Quick drop_rule_partitions_and_heals;
      Alcotest.test_case "engines never share a reader id; rules keep their process"
        `Quick engines_keep_ids_and_attribution;
      Alcotest.test_case "a lost reply is sent again" `Quick
        lost_reply_is_sent_again;
      Alcotest.test_case "rules survive a crash and restart of their object"
        `Quick rules_survive_restart;
      Alcotest.test_case "a duplicated request is handled again" `Quick
        duplicated_request_is_handled_again;
      Alcotest.test_case "a corrupted reply is a client decode error" `Quick
        corrupted_reply_is_a_decode_error;
      Alcotest.test_case "a delayed reply leaves its delay late" `Quick
        delayed_reply_leaves_late;
      Alcotest.test_case "one plan value runs on both backends" `Slow
        same_plan_runs_on_both_backends;
      Alcotest.test_case "sim and live matrices share a schema" `Slow
        matrices_share_a_schema;
      Alcotest.test_case "live counterexample replays deterministically in sim"
        `Slow live_witness_replays_deterministically;
    ] )
