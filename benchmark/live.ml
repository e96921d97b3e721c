(* The live workloads: one keyed client in this process against a fleet
   of base objects in a child process, over loopback TCP.

   Each run sets up seven times (fleet start, connect, 5k warmup reads)
   and keeps the last fleet for the timed phases:

   - light: an open loop at a fixed 3000 ops/s, one [run_ops] call per
     1 ms chunk, each op timed from its chunk's due time;
   - saturation: a closed loop, window 64, issued as [run_ops] calls of
     8192 ops until its share of [--seconds] is spent inside them;
     capacity is the median of the per-call rates.

   Every op of every phase is checked.  Events are logged into flat
   arrays while calls run; per-key histories are built and checked
   outside the timed calls.  A [run_ops] return leaves every key
   quiescent, so a key's history is cut at each call and each piece is
   seeded with a completed write of the key's last value: the list
   checkers cost O(reads x ops) per piece, not per run.  A key with a
   failed op is no longer cut — its events from that call on are checked
   as one history when its fleet stops. *)

module Keyed = Net.Client.Keyed

type spec = {
  name : string;
  cfg : Quorum.Config.t;
  keys : int;
  skew : float;
  write_ratio : float;
  crash : bool;
      (* object S crashes at 1/3 of every timed phase and restarts wiped
         at 2/3 *)
}

let specs =
  [
    {
      name = "uniform-rw";
      cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1;
      keys = 4096;
      skew = 0.;
      write_ratio = 0.10;
      crash = false;
    };
    {
      name = "hot-read";
      cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1;
      keys = 256;
      skew = 0.99;
      write_ratio = 0.04;
      crash = false;
    };
    {
      name = "robust-crash";
      cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
      keys = 4096;
      skew = 0.;
      write_ratio = 0.10;
      crash = true;
    };
  ]

let window = 64

let coalesce = 64

let call_ops = 8192

let warmup_ops = 5_000

let setup_reps = 7

let chunk_ns = 1_000_000

let ops_per_chunk = 3 (* 3000 ops/s *)

let slices = 8

let replay_ops = 20_000

(* ---- inputs ------------------------------------------------------------ *)

(* Streams: 0 warmup, 1 saturation, 2 light.  Write values carry a
   phase tag so that two phases on one fleet never write the same value
   to a key — the checkers identify a write by its value. *)
let generator spec ~seed ~stream ~write_ratio =
  Workload.Keyspace.make_exn ~skew:spec.skew ~write_ratio ~keys:spec.keys
    ~seed:((seed * 8) + stream) ()

let draw gen ~tag n =
  Array.init n (fun _ ->
      match Workload.Keyspace.next gen with
      | Workload.Keyspace.Read { key } -> Keyed.Read { key }
      | Workload.Keyspace.Write { key; value } ->
          Keyed.Write
            { key; value = Core.Value.v (tag ^ Core.Value.to_string value) })

(* ---- event log and calls ----------------------------------------------- *)

(* One entry per [run_ops] event: (op lsl 2) lor joined*2 lor respond,
   and its timestamp in ns. *)
type log = { mutable code : int array; mutable at : int array; mutable len : int }

let new_log () = { code = Array.make 1024 0; at = Array.make 1024 0; len = 0 }

let reserve log n =
  if log.len + n > Array.length log.code then begin
    let cap = max (2 * Array.length log.code) (log.len + n) in
    let extend a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 log.len;
      b
    in
    log.code <- extend log.code;
    log.at <- extend log.at
  end

let push log code at =
  if log.len = Array.length log.code then reserve log 1;
  log.code.(log.len) <- code;
  log.at.(log.len) <- at;
  log.len <- log.len + 1

type call = {
  ops : Keyed.kop array;
  res : (Net.Client.outcome, string) result array;
  log : log;
  lo : int;
  hi : int;  (* this call's events are log.(lo .. hi-1) *)
  due : int;  (* ns: when the call was due (light) or started *)
  start : int;  (* ns: when it actually started *)
  wall_ns : int;
  cpu_s : float;  (* this process's CPU during the call *)
}

(* ---- sessions ---------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable checked : int;
  mutable violations : int;
  mutable check_ns : int;
}

type session = {
  spec : spec;
  fleet : Fleet.t;
  client : Keyed.t;
  last : (int, string) Hashtbl.t;  (* key -> value of its last write *)
  tainted : (int, (call * int) list ref) Hashtbl.t;
      (* keys with a failed op -> their events since, newest first *)
  tally : tally;
  sp : Spans.t option;
}

let run_call s log ?(hook = ignore) ~due ops =
  reserve log (2 * Array.length ops);
  let lo = log.len in
  (* Events are stamped here, in ns, rather than with their µs [at_us]:
     the callback runs as the event is emitted. *)
  let on_event = function
    | Keyed.Invoke { op; joined; _ } ->
        push log ((op lsl 2) lor if joined then 2 else 0) (Spans.now_ns ())
    | Keyed.Respond { op; joined; _ } ->
        let now = Spans.now_ns () in
        push log ((op lsl 2) lor if joined then 3 else 1) now;
        hook now
  in
  let c0 = Spans.cpu_s () in
  let t0 = Spans.now_ns () in
  let start = t0 in
  let res = Keyed.run_ops ~on_event s.client ops in
  let t1 = Spans.now_ns () in
  let cpu_s = Spans.cpu_s () -. c0 in
  s.tally.attempted <- s.tally.attempted + Array.length ops;
  Array.iter
    (function Error _ -> s.tally.failed <- s.tally.failed + 1 | Ok _ -> ())
    res;
  { ops; res; log; lo; hi = log.len; due; start; wall_ns = t1 - t0; cpu_s }

(* ---- checking ---------------------------------------------------------- *)

let read_result = function
  | { Net.Client.value = Some (Core.Value.V v); _ } -> Histories.Op.Value v
  | { Net.Client.value = Some Core.Value.Bottom | None; _ } -> Histories.Op.Bottom

(* Build one key's history from its events (oldest first), seeded with
   a completed write of the key's last value, and check it.  Lead ops
   are program-ordered per (key, role); a lead op that timed out stays
   open and the next op on its role resumes it, so its invocation
   stands.  Joined reads are concurrent by construction and record
   under fresh reader ids; each responds within its own call, so op
   indices, which restart with every call, never clash in [joined]. *)
let check_key s ~key events =
  let module R = Histories.Recorder in
  let r = R.create () in
  (match Hashtbl.find_opt s.last key with
  | Some v -> R.respond_write r (R.invoke_write r ~time:0 v) ~time:0
  | None -> ());
  let lead_w = ref None and lead_r = ref None in
  let joined = Hashtbl.create 8 in
  let next_reader = ref 2 and ops = ref 0 in
  List.iter
    (fun (c, e) ->
      let code = c.log.code.(e) and time = c.log.at.(e) in
      let op = code lsr 2 in
      match (code land 1 = 1, code land 2 = 2, c.ops.(op), c.res.(op)) with
      | false, true, _, _ ->
          incr ops;
          Hashtbl.replace joined op
            (R.invoke_read r ~time ~reader:!next_reader);
          incr next_reader
      | false, false, Keyed.Write { value; _ }, _ ->
          incr ops;
          if !lead_w = None then begin
            let v = Core.Value.to_string value in
            lead_w := Some (R.invoke_write r ~time v);
            Hashtbl.replace s.last key v
          end
      | false, false, Keyed.Read _, _ ->
          incr ops;
          if !lead_r = None then lead_r := Some (R.invoke_read r ~time ~reader:1)
      | true, true, _, Ok o ->
          R.respond_read r (Hashtbl.find joined op) ~time (read_result o)
      | true, false, Keyed.Write _, Ok _ ->
          Option.iter (fun h -> R.respond_write r h ~time) !lead_w;
          lead_w := None
      | true, false, Keyed.Read _, Ok o ->
          Option.iter (fun h -> R.respond_read r h ~time (read_result o)) !lead_r;
          lead_r := None
      | true, _, _, Error _ -> ())
    events;
  let h = R.ops r in
  let equal = String.equal in
  let bad =
    List.length (Histories.Checks.check_safety ~equal h)
    + List.length (Histories.Checks.check_regularity ~equal h)
  in
  s.tally.checked <- s.tally.checked + !ops;
  s.tally.violations <- s.tally.violations + bad

let check_call s ~parent c =
  Spans.within s.sp ~parent "histories.check" (fun _ ->
      let t0 = Spans.now_ns () in
      Array.iteri
        (fun i -> function
          | Error _ ->
              let key = Keyed.op_key c.ops.(i) in
              if not (Hashtbl.mem s.tainted key) then
                Hashtbl.replace s.tainted key (ref [])
          | Ok _ -> ())
        c.res;
      let by_key = Hashtbl.create 256 in
      for e = c.hi - 1 downto c.lo do
        let key = Keyed.op_key c.ops.(c.log.code.(e) lsr 2) in
        match Hashtbl.find_opt by_key key with
        | Some l -> l := (c, e) :: !l
        | None -> Hashtbl.add by_key key (ref [ (c, e) ])
      done;
      Hashtbl.iter
        (fun key l ->
          match Hashtbl.find_opt s.tainted key with
          | Some acc -> acc := List.rev_append !l !acc
          | None -> check_key s ~key !l)
        by_key;
      s.tally.check_ns <- s.tally.check_ns + (Spans.now_ns () - t0))

(* ---- phases ------------------------------------------------------------ *)

(* robust-crash: object S crashes at 1/3 of the phase and restarts wiped
   at 2/3, fired from the client's event callback through the control
   pipe so that the fault lands mid-call.  [fire] takes the time into
   the phase; [finish] fires whatever the phase ended too early for, so
   the next phase starts whole. *)
let fault_plan s ~dur_ns =
  if not s.spec.crash then (ignore, ignore)
  else begin
    let obj = string_of_int s.spec.cfg.Quorum.Config.s in
    let plan =
      ref [ (dur_ns / 3, "crash " ^ obj); (2 * dur_ns / 3, "restart " ^ obj) ]
    in
    let rec fire t =
      match !plan with
      | (at, cmd) :: rest when t >= at ->
          Fleet.send_async s.fleet cmd;
          plan := rest;
          fire t
      | _ -> ()
    in
    let finish () =
      fire max_int;
      Fleet.drain s.fleet
    in
    (fire, finish)
  end

type counts = { reads : int; joined : int; rounds : int; retransmits : int }

let no_counts = { reads = 0; joined = 0; rounds = 0; retransmits = 0 }

(* Adds one call's completed reads, joined reads, reported rounds of
   completed reads, and retransmissions. *)
let add_counts k c =
  let reads = ref k.reads and joined = ref k.joined in
  let rounds = ref k.rounds and retr = ref k.retransmits in
  for e = c.lo to c.hi - 1 do
    if c.log.code.(e) land 3 = 3 then incr joined
  done;
  Array.iter
    (function
      | Ok (o : Net.Client.outcome) ->
          retr := !retr + o.retransmits;
          if o.value <> None then begin
            incr reads;
            rounds := !rounds + o.rounds
          end
      | Error _ -> ())
    c.res;
  { reads = !reads; joined = !joined; rounds = !rounds; retransmits = !retr }

(* Per-call figures, so that each metric can be the median over calls:
   the machine this runs on may be shared, and a burst of load from
   elsewhere then slows a few calls rather than the whole phase. *)
type saturation = {
  rates : float array;  (* ops/s *)
  client_cpu : float array;  (* µs of this process's CPU per op *)
  fleet_cpu : float array;  (* µs of the fleet's CPU per op *)
  sat_ops : int;
  msgs : int;
  counts : counts;
}

(* Calls run until their own time adds up to [seconds].  Each call is
   checked as soon as it returns, outside the timed window, and then
   dropped: keeping a phase's ops, results and events alive would grow
   the client's heap, and with it the client's cost per op. *)
let saturation s ~gen ~seconds ~parent =
  Spans.within s.sp ~parent "bench.saturation" (fun pid ->
      let budget = int_of_float (seconds *. 1e9) in
      let fire, finish = fault_plan s ~dur_ns:budget in
      let msgs0, _ = Fleet.stats s.fleet in
      let rates = Stat.Sample.create () and client = Stat.Sample.create () in
      let fleet = Stat.Sample.create () in
      let spent = ref 0 and ops = ref 0 and counts = ref no_counts in
      while !ops = 0 || !spent < budget do
        let kops = draw gen ~tag:"s" call_ops in
        let log = new_log () in
        let n = float_of_int call_ops in
        let cpu0 = Fleet.cpu s.fleet in
        let base = !spent - Spans.now_ns () in
        let c =
          Spans.within s.sp ~parent:pid "net.run_ops" (fun _ ->
              run_call s log ~hook:(fun now -> fire (base + now)) ~due:(Spans.now_ns ()) kops)
        in
        Stat.Sample.add fleet ((Fleet.cpu s.fleet -. cpu0) *. 1e6 /. n);
        Stat.Sample.add client (c.cpu_s *. 1e6 /. n);
        Stat.Sample.add rates (n *. 1e9 /. float_of_int c.wall_ns);
        spent := !spent + c.wall_ns;
        ops := !ops + call_ops;
        counts := add_counts !counts c;
        check_call s ~parent:pid c
      done;
      finish ();
      let msgs1, _ = Fleet.stats s.fleet in
      {
        rates = Stat.Sample.to_array rates;
        client_cpu = Stat.Sample.to_array client;
        fleet_cpu = Stat.Sample.to_array fleet;
        sat_ops = !ops;
        msgs = msgs1 - msgs0;
        counts = !counts;
      })

(* Sleep to within [spin_ns] of [t], then spin: a sleep alone wakes
   50-150 µs late, which would be charged to every op as latency. *)
let spin_ns = 250_000

let wait_until t =
  let d = t - Spans.now_ns () in
  if d > spin_ns then Unix.sleepf (float_of_int (d - spin_ns) /. 1e9);
  while Spans.now_ns () < t do
    Domain.cpu_relax ()
  done

let light s ~gen ~seconds ~parent =
  Spans.within s.sp ~parent "bench.light" (fun pid ->
      let chunks = max slices (int_of_float (seconds *. 1e9) / chunk_ns) in
      let log = new_log () in
      reserve log (2 * chunks * ops_per_chunk);
      let start = Spans.now_ns () + chunk_ns in
      let fire, finish = fault_plan s ~dur_ns:(chunks * chunk_ns) in
      let hook now = fire (now - start) in
      let calls =
        Array.init chunks (fun k ->
            let due = start + (k * chunk_ns) in
            let ops = draw gen ~tag:"l" ops_per_chunk in
            wait_until due;
            hook (Spans.now_ns ());
            Spans.within s.sp ~parent:pid "net.run_ops" (fun _ ->
                run_call s log ~hook ~due ops))
      in
      finish ();
      Array.iter (check_call s ~parent:pid) calls;
      calls)

(* Latencies of a light phase in µs, from due time. *)
type latencies = {
  read_slices : float array array;  (* reads of each time slice *)
  write_slices : float array array;
  admit : float array;  (* due -> Invoke *)
  service : float array;  (* Invoke -> Respond *)
  late : float array;  (* due -> the generator's call *)
}

let latencies calls =
  let n = Array.length calls in
  let us ns = float_of_int ns /. 1e3 in
  let reads = Array.init slices (fun _ -> Stat.Sample.create ()) in
  let writes = Array.init slices (fun _ -> Stat.Sample.create ()) in
  let admit = Stat.Sample.create () in
  let service = Stat.Sample.create () and late = Stat.Sample.create () in
  Array.iteri
    (fun k c ->
      Stat.Sample.add late (us (c.start - c.due));
      let invoked = Array.make (Array.length c.ops) 0 in
      for e = c.lo to c.hi - 1 do
        let code = c.log.code.(e) and at = c.log.at.(e) in
        let op = code lsr 2 in
        if code land 1 = 0 then begin
          invoked.(op) <- at;
          Stat.Sample.add admit (us (at - c.due))
        end
        else begin
          Stat.Sample.add service (us (at - invoked.(op)));
          let lat = us (at - c.due) in
          let slice = k * slices / n in
          Stat.Sample.add
            (if Keyed.op_is_write c.ops.(op) then writes.(slice) else reads.(slice))
            lat
        end
      done)
    calls;
  {
    read_slices = Array.map Stat.Sample.to_array reads;
    write_slices = Array.map Stat.Sample.to_array writes;
    admit = Stat.Sample.to_array admit;
    service = Stat.Sample.to_array service;
    late = Stat.Sample.to_array late;
  }

(* ---- a whole run ------------------------------------------------------- *)

let open_session spec ~seed ~rep ~metrics ~sp ~parent tally =
  Spans.within sp ~parent "bench.setup" (fun pid ->
      let t0 = Spans.now_ns () in
      let fleet = Fleet.spawn ~cfg:spec.cfg ~metrics in
      let map =
        Shard.Map.make_exn ~keys:spec.keys ~fleet:spec.cfg.Quorum.Config.s
          ~cfg:spec.cfg ()
      in
      let client =
        Keyed.connect
          ?metrics:(if metrics then Some (Obs.Metrics.create ()) else None)
          ~now_us:Spans.now_us ~max_inflight:window ~reader:1 ~coalesce
          ~protocol:Fleet.protocol ~map (Fleet.endpoints fleet)
      in
      let s =
        {
          spec;
          fleet;
          client;
          last = Hashtbl.create 1024;
          tainted = Hashtbl.create 8;
          tally;
          sp;
        }
      in
      let warm = generator spec ~seed:(seed + rep) ~stream:0 ~write_ratio:0. in
      let log = new_log () in
      let c =
        Spans.within sp ~parent:pid "net.run_ops" (fun _ ->
            run_call s log ~due:(Spans.now_ns ()) (draw warm ~tag:"" warmup_ops))
      in
      let setup_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
      check_call s ~parent:pid c;
      (s, setup_s))

(* Check the tainted keys' remaining histories, then stop the fleet.
   Returns the fleet's partition violations. *)
let close_session s =
  Hashtbl.iter (fun key l -> check_key s ~key (List.rev !l)) s.tainted;
  Keyed.close s.client;
  let _, partition = Fleet.stats s.fleet in
  Fleet.stop s.fleet;
  partition

type pass = { sat : saturation; lat : latencies }

let streams spec ~seed =
  ( generator spec ~seed ~stream:1 ~write_ratio:spec.write_ratio,
    generator spec ~seed ~stream:2 ~write_ratio:spec.write_ratio )

(* The two timed phases on an open session: 40% of the run's seconds
   light, then 60% saturated.  Light goes first so that its latencies
   do not depend on how far the saturation phase grew the client's
   heap. *)
let run_pass s ~seed ~seconds ~parent =
  let sat_gen, light_gen = streams s.spec ~seed in
  let calls = light s ~gen:light_gen ~seconds:(0.4 *. seconds) ~parent in
  let sat = saturation s ~gen:sat_gen ~seconds:(0.6 *. seconds) ~parent in
  { sat; lat = latencies calls }

let per_op total ops = if ops = 0 then 0. else total /. float_of_int ops

(* A percentile of each time slice, then their median: a burst of load
   from elsewhere on the machine moves one slice, not the metric. *)
let over_slices slices p =
  match List.filter (fun xs -> Array.length xs > 0) (Array.to_list slices) with
  | [] -> 0.
  | l -> Stat.median (Array.of_list (List.map (fun xs -> Stat.percentile xs p) l))

let histogram reg name f =
  match Obs.Metrics.find_histogram reg name with
  | Some h when Obs.Metrics.Histogram.count h > 0 -> f h
  | _ -> 0.

(* Per-layer metrics.  Whatever can be measured from outside the program
   (CPU time, message counts, rounds, events) comes from the untraced
   pass [p]; the server's batching and queueing come from a second pass
   with every metrics registry on; Core and Codec costs come from an
   in-process replay; and a light phase against S = 1 gives the cost of
   one unreplicated round trip. *)
let layers spec ~seed ~seconds ~sp ~root ~close tally (p : pass) =
  let traced, _ =
    open_session spec ~seed ~rep:0 ~metrics:true ~sp ~parent:root tally
  in
  let tp =
    Spans.within sp ~parent:root "bench.traced" (fun pid ->
        run_pass traced ~seed ~seconds:(0.5 *. seconds) ~parent:pid)
  in
  let freg = Fleet.metrics traced.fleet in
  close traced;
  let base_spec =
    { spec with cfg = Quorum.Config.make_exn ~s:1 ~t:0 ~b:0; crash = false }
  in
  let base, _ =
    open_session base_spec ~seed ~rep:0 ~metrics:false ~sp ~parent:root tally
  in
  let base_calls =
    light base ~gen:(snd (streams spec ~seed)) ~seconds:(0.1 *. seconds)
      ~parent:root
  in
  close base;
  let (Net.Protocols.Packed { proto; codec }) = Fleet.protocol in
  let rp =
    Spans.within sp ~parent:root "bench.replay" (fun pid ->
        Replay.run proto codec ~cfg:spec.cfg ~sp ~parent:pid
          (draw (fst (streams spec ~seed)) ~tag:"s" replay_ops))
  in
  let n = p.sat.sat_ops in
  let client_cpu = Stat.median p.sat.client_cpu in
  let fleet_cpu = Stat.median p.sat.fleet_cpu in
  let c = p.sat.counts in
  let ns (a : Replay.acc) = per_op (float_of_int a.ns) a.calls in
  let floor =
    per_op
      (float_of_int
         (rp.reads.ns + rp.writes.ns + rp.objects.ns + rp.encode.ns + rp.decode.ns))
      rp.ops
    /. 1e3
  in
  let q name p = histogram freg name (fun h -> Obs.Metrics.Histogram.quantile h p) in
  [
    ("client.cpu_us_per_op", client_cpu, "us");
    ("client.admit_wait_us_p50", Stat.percentile p.lat.admit 50, "us");
    ("client.service_us_p50", Stat.percentile p.lat.service 50, "us");
    ("client.retransmits_per_kop", per_op (1e3 *. float_of_int c.retransmits) n, "1/kop");
    ("coalesce.joined_frac", per_op (float_of_int c.joined) c.reads, "fraction");
    ("coalesce.width_mean", per_op (float_of_int c.reads) (c.reads - c.joined), "reads/round");
    ("server.cpu_us_per_op", fleet_cpu, "us");
    ("server.batch_size_p50", q "wire.batch_size" 50., "frames");
    ("server.queue_depth_p99", q "wire.queue_depth" 99., "frames");
    ( "server.backpressure_stalls",
      histogram freg "wire.backpressure_stalls" (fun h ->
          float_of_int (Obs.Metrics.Histogram.count h)),
      "count" );
    ("codec.bytes_per_op", per_op (float_of_int rp.bytes) rp.ops, "B/op");
    ("codec.encode_ns_per_msg", ns rp.encode, "ns");
    ("codec.decode_ns_per_msg", ns rp.decode, "ns");
    ("core.reader_ns_per_read", ns rp.reads, "ns");
    ("core.writer_ns_per_write", ns rp.writes, "ns");
    ("core.object_ns_per_msg", ns rp.objects, "ns");
    ("floor.cpu_us_per_op", floor, "us");
    ("net.residual_us_per_op", client_cpu +. fleet_cpu -. floor, "us");
    (* Against as many untraced calls: the client's heap, and with it its
       cost per op, grows over a phase. *)
    ( "obs.overhead_pct",
      (let k = min (Array.length tp.sat.rates) (Array.length p.sat.rates) in
       100. *. (1. -. (Stat.median tp.sat.rates /. Stat.median (Array.sub p.sat.rates 0 k)))),
      "%" );
    ("baseline.read_p50_us", over_slices (latencies base_calls).read_slices 50, "us");
    ("loadgen.late_us_p99", Stat.percentile p.lat.late 99, "us");
  ]

let run spec ~seed ~seconds ~trace ~sp =
  let tally =
    { attempted = 0; failed = 0; checked = 0; violations = 0; check_ns = 0 }
  in
  let partition = ref 0 in
  let close s = partition := !partition + close_session s in
  Spans.within sp ~parent:(-1) ("bench." ^ spec.name) (fun root ->
      let open_rep rep =
        open_session spec ~seed ~rep ~metrics:false ~sp ~parent:root tally
      in
      let setups =
        List.init (setup_reps - 1) (fun rep ->
            let s, t = open_rep rep in
            close s;
            t)
      in
      let main, last = open_rep (setup_reps - 1) in
      let p = run_pass main ~seed ~seconds ~parent:root in
      close main;
      let cpu = Array.map2 ( +. ) p.sat.client_cpu p.sat.fleet_cpu in
      let c = p.sat.counts in
      (* What an op costs in the paper's terms, which load from elsewhere
         on the machine cannot move. *)
      let e2e =
        [
          ("setup_s", Stat.median (Array.of_list (last :: setups)), "s");
          ("rounds_per_read", per_op (float_of_int c.rounds) c.reads, "rounds");
          ("msgs_per_op", per_op (float_of_int p.sat.msgs) p.sat.sat_ops, "msgs/op");
        ]
      in
      (* Speed.  On a shared machine these vary from run to run by more
         than any regression bound can allow (README.md, Bounds), so they
         are per-layer metrics; every run prints them. *)
      let speed =
        [
          ("ops_s", Stat.median p.sat.rates, "1/s");
          ("cpu_us_per_op", Stat.median cpu, "us");
          ("read_p50_us", over_slices p.lat.read_slices 50, "us");
          ("read_p99_us", over_slices p.lat.read_slices 99, "us");
          ("write_p50_us", over_slices p.lat.write_slices 50, "us");
          ("write_p90_us", over_slices p.lat.write_slices 90, "us");
        ]
      in
      let layer =
        if trace then layers spec ~seed ~seconds ~sp ~root ~close tally p else []
      in
      (* Checking ends with the last fleet, so its totals come last. *)
      let measured =
        speed
        @ [
            ("check.us_per_op", per_op (float_of_int tally.check_ns /. 1e3) tally.checked, "us");
            ( "check.ops_checked_frac",
              per_op (float_of_int tally.checked) tally.attempted,
              "fraction" );
          ]
      in
      let violations = tally.violations + !partition in
      {
        Report.workload = spec.name;
        correct = violations = 0 && tally.checked = tally.attempted;
        attempted = tally.attempted;
        failed = tally.failed;
        e2e;
        layer = (if trace then layer @ measured else []);
        notes =
          [
            ("violations", float_of_int violations, "count");
            ("fail_frac", per_op (float_of_int tally.failed) tally.attempted, "fraction");
          ]
          @ if trace then [] else measured;
      })
