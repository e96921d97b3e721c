(* Shared machinery for the experiment tables: a protocol-agnostic runner
   that executes any Protocol_intf.S implementation on a schedule and
   projects the report onto a flat summary the tables consume. *)

(* Worker-domain count for the experiments that fan out over a pool
   ([None] = the pool's own default, [Exec.Pool.recommended_jobs]).
   Set once by the harness from [--jobs N]; results are byte-identical
   whatever the value. *)
let jobs : int option ref = ref None

type summary = {
  completed : int;
  total : int;
  write_rounds_max : int;
  read_rounds_mean : float;
  read_rounds_max : int;
  fast_read_fraction : float;  (* reads decided on round-1 data *)
  read_latency : Stats.Summary.t;
  write_latency : Stats.Summary.t;
  words_to_readers : int;
  safe : bool;
  regular : bool;
  safety_violations : int;
}

(* Run [P] at [cfg] on [schedule] with the objects of [byz] running
   their strategies and the [crashes] applied. *)
let simulate (type m) (module P : Core.Protocol_intf.S with type msg = m)
    ~cfg ~(byz : (int * m Core.Byz.factory) list) ~seed ~delay ~crashes
    schedule =
  let module Sc = Core.Scenario.Make (P) in
  let faults = { Sc.crashes; byzantine = byz } in
  let rep =
    Sc.run ~max_events:2_000_000 ~cfg ~seed ~delay ~faults schedule
  in
  let read_rounds = Stats.Summary.create () in
  let read_latency = Stats.Summary.create () in
  let write_latency = Stats.Summary.create () in
  let write_rounds_max = ref 0 in
  let fast_reads = ref 0 in
  let reads = ref 0 in
  List.iter
    (fun (o : Sc.outcome) ->
      match o.op with
      | Core.Schedule.Read _ ->
          incr reads;
          if o.rounds = 1 then incr fast_reads;
          Stats.Summary.add_int read_rounds o.rounds;
          Stats.Summary.add_int read_latency (o.completed_at - o.invoked_at)
      | Core.Schedule.Write _ ->
          write_rounds_max := max !write_rounds_max o.rounds;
          Stats.Summary.add_int write_latency (o.completed_at - o.invoked_at))
    rep.outcomes;
  let equal = String.equal in
  let violations = Histories.Checks.check_safety ~equal rep.history in
  {
    completed = List.length rep.outcomes;
    total = List.length schedule;
    write_rounds_max = !write_rounds_max;
    read_rounds_mean = Stats.Summary.mean read_rounds;
    read_rounds_max =
      (if Stats.Summary.count read_rounds = 0 then 0
       else int_of_float (Stats.Summary.max read_rounds));
    fast_read_fraction =
      (if !reads = 0 then 0.0 else float_of_int !fast_reads /. float_of_int !reads);
    read_latency;
    write_latency;
    words_to_readers = rep.words_to_readers;
    safe = violations = [];
    regular = Histories.Checks.is_regular ~equal rep.history;
    safety_violations = List.length violations;
  }

(* A table protocol at its design configuration for t = b = 1, with the
   bench's labels and the object that forges when Byzantine faults are
   on. *)
type contender = {
  protocol : Fault.Campaign.protocol;
  label : string;
  semantics : string;
  byz : int;
}

let config c = Fault.Campaign.default_cfg c.protocol ~t:1 ~b:1

let run ~seed ~delay ~crashes ~use_byz c schedule =
  let (Fault.Campaign.Entry { automata; strategy; _ }) =
    Fault.Campaign.entry c.protocol
  in
  simulate automata ~cfg:(config c)
    ~byz:(if use_byz then [ (c.byz, strategy Fault.Plan.Forge) ] else [])
    ~seed ~delay ~crashes schedule

let section title =
  Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.printf (fmt ^^ "\n")

let csv_counter = ref 0

(* Tables also land as CSV files when ROBUSTREAD_CSV_DIR is set, for
   downstream plotting. *)
let print_table t =
  print_string (Stats.Table.to_string t);
  match Sys.getenv_opt "ROBUSTREAD_CSV_DIR" with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" !csv_counter) in
      let oc = open_out path in
      output_string oc (Stats.Table.to_csv t);
      close_out oc

let core_cfg = Quorum.Config.optimal ~t:1 ~b:1

(* Standard contenders used by several experiments. *)
let contender protocol label semantics byz = { protocol; label; semantics; byz }

let safe_contender = contender Safe "safe (Fig 2-4)" "safe" 2

let regular_contender = contender Regular "regular (Fig 5-6)" "regular" 2

let regular_opt_contender =
  contender Regular_opt "regular-opt (S5.1)" "regular" 2

let abd_contender = contender Abd "ABD [3] (b=0)" "regular" 1

let abd_atomic_contender = contender Abd_atomic "ABD atomic" "atomic" 1

let nonmod_contender = contender Nonmod "non-modifying [1]" "safe" 2

let auth_contender = contender Auth "authenticated [15]" "regular" 2

let fast_safe_contender = contender Fast_safe "fast-safe (S=2t+2b+1)" "safe" 1

let naive_contender = contender Naive_fast "naive-fast (strawman)" "none" 1

let all_contenders =
  [
    safe_contender;
    regular_contender;
    regular_opt_contender;
    abd_contender;
    abd_atomic_contender;
    nonmod_contender;
    auth_contender;
    fast_safe_contender;
    naive_contender;
  ]

(* -- live-bench helpers (E13-E15, E18-E20) ------------------------------ *)

(* Seconds on the monotonic clock: pass timers a wall-clock step must
   not stretch or shrink. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let getenv_int ?(min = 1) name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ ->
          Printf.eprintf "%s expects an integer >= %d (got %S)\n" name min s;
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

(* [name] is the environment variable choosing the loopback transport. *)
let transport name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "%s expects tcp or unix (got %S)\n" name s;
          exit 2)

let transport_name = function `Tcp -> "tcp" | `Unix -> "unix"

(* A histogram's quantile, 0 when it is missing or empty. *)
let quantile_or_zero h p =
  match h with
  | Some h when Obs.Metrics.Histogram.count h > 0 ->
      Obs.Metrics.Histogram.quantile h p
  | _ -> 0.

(* [exp] names the experiment in the message. *)
let ok_exn exp what = function
  | Ok o -> o
  | Error e ->
      Printf.eprintf "%s: %s failed: %s\n" exp what e;
      exit 1

(* The single register's operations, one per [Net.Cluster.run] call:
   the shape of one paper process issuing its next op. *)
let read0 = Net.Client.Keyed.Read { key = 0 }

let write0 v = Net.Client.Keyed.Write { key = 0; value = Core.Value.v v }

let run_one engine op = (Net.Cluster.run engine [| op |]).(0)

(* A live cell's verdict from [entry]'s row of the protocol table: every
   op has responded by now, so the run is quiescent. *)
let judge_cluster entry cluster ~completed ~total =
  Fault.Campaign.judge entry ~quiescent:true ~completed ~total
    (Net.Cluster.keyed_histories cluster)

let summary_json buf label (s : Stats.Summary.t) =
  Printf.bprintf buf
    "\"%s\": { \"count\": %d, \"p50_us\": %.0f, \"p99_us\": %.0f, \
     \"mean_us\": %.1f, \"max_us\": %.0f }"
    label (Stats.Summary.count s)
    (Stats.Summary.percentile s 50.)
    (Stats.Summary.percentile s 99.)
    (Stats.Summary.mean s) (Stats.Summary.max s)

let completed passes =
  Array.fold_left
    (fun n (_, results) ->
      Array.fold_left (fun n -> function Ok _ -> n + 1 | Error _ -> n) n results)
    0 passes

(* One E19/E20 keyspace cell: [clients] client domains, each with its own
   engine (reader id c+1, write ownership of the keys with
   mix(key) mod clients = c, so every register stays SWMR) on a fresh
   cluster of [fleet] servers, drive the zipfian mix [trials] times
   after an untimed warm-up.  Every op of every client is recorded and
   every key's history and every op's rounds judged by [entry]'s row of
   the protocol table. *)
type keyspace_cell = {
  total_ops : int;  (* per trial *)
  wall : float;  (* best trial's *)
  rate : float;
  lat : Stats.Summary.t;
  reads : int;
  fast : int;
  writes : int;
  failures : int;  (* every trial *)
  keys_checked : int;
  ops_completed : int;  (* warm-up included *)
  ops_checked : int;
  violations : int;
  partition : int;
  shards_with_reads : int;
  shards_fast : int;
  metrics : Obs.Metrics.t;  (* server and client registries merged *)
}

let keyspace_cell ~exp ~label ~transport ~protocol ~entry ~cfg ~fleet ~domains
    ~clients ~inflight ~coalesce ~keys ~skew ~write_ratio ~ops ~trials ~seed =
  let map = Shard.Map.make_exn ~keys ~fleet ~cfg () in
  let cluster =
    Net.Cluster.start ~transport ~domains ~map ~protocol ~cfg ()
  in
  let engines =
    Array.init clients (fun _ -> Net.Cluster.engine ~inflight ~coalesce cluster)
  in
  let run c = Net.Cluster.run engines.(c) in
  let owner k = Shard.Map.mix k mod clients in
  let gens =
    Array.init clients (fun c ->
        Workload.Keyspace.make_exn ~skew ~write_ratio
          ~write_filter:(fun k -> owner k = c)
          ~keys ~seed:(seed + c) ())
  in
  (* One measured pass: client [c] draws its ops untimed, then runs them. *)
  let pass gens n =
    Exec.Pool.timed clients (fun c ->
        let kops = Workload.Keyspace.ops gens.(c) n in
        fun () -> run c kops)
  in
  (* Warm-up reads only, so it needs no write ownership. *)
  let warm =
    Array.init clients (fun c ->
        Workload.Keyspace.make_exn ~skew ~write_ratio:0.0 ~keys ~seed:(7 + c) ())
  in
  let ops_completed = ref (completed (pass warm (min 200 ops))) in
  let total_ops = clients * ops in
  let failures = ref 0 in
  let best = ref None in
  for trial = 1 to trials do
    let passes = pass gens ops in
    ops_completed := !ops_completed + completed passes;
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
                Printf.eprintf "%s: op failed: %s\n" exp e)
          results)
      passes;
    let rate = float_of_int total_ops /. wall in
    note "  %s trial=%d  %8.0f ops/s  p50=%.0fus p99=%.0fus  fast %d/%d reads"
      label trial rate
      (Stats.Summary.percentile lat 50.)
      (Stats.Summary.percentile lat 99.)
      !fast !reads;
    match !best with
    | Some (_, r, _, _) when r >= rate -> ()
    | _ -> best := Some (wall, rate, lat, (!reads, !fast, !writes))
  done;
  Net.Cluster.stop cluster;
  let histories = Net.Cluster.keyed_histories cluster in
  let verdict =
    Fault.Campaign.judge entry ~quiescent:true ~completed:!ops_completed
      ~total:(!ops_completed + !failures) histories
  in
  let metrics = Net.Cluster.metrics cluster in
  (* Fast-read engagement per shard, from the engines' shard.<i>.*
     counters. *)
  let shards_with_reads = ref 0 and shards_fast = ref 0 in
  for sh = 0 to Shard.Map.shards map - 1 do
    let count what =
      Obs.Metrics.counter_value metrics (Printf.sprintf "shard.%d.%s" sh what)
    in
    if count "reads" > 0 then begin
      incr shards_with_reads;
      if count "fast_reads" > 0 then incr shards_fast
    end
  done;
  let wall, rate, lat, (reads, fast, writes) =
    match !best with
    | Some b -> b
    | None -> (0., 0., Stats.Summary.create (), (0, 0, 0))
  in
  {
    total_ops;
    wall;
    rate;
    lat;
    reads;
    fast;
    writes;
    failures = !failures;
    keys_checked = List.length histories;
    ops_completed = !ops_completed;
    ops_checked = verdict.checked;
    violations = Fault.Campaign.breaches verdict;
    partition = Net.Cluster.partition_violations cluster;
    shards_with_reads = !shards_with_reads;
    shards_fast = !shards_fast;
    metrics;
  }

(* The fields every keyspace cell reports, between the bench's own
   leading and trailing ones. *)
let keyspace_cell_json buf c =
  Printf.bprintf buf "\"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": %.1f,\n      "
    c.total_ops c.wall c.rate;
  summary_json buf "latency" c.lat;
  Printf.bprintf buf
    ",\n      \"reads\": %d, \"fast_reads\": %d, \"writes\": %d, \
     \"failures\": %d,\n      \"keys_checked\": %d, \"ops_completed\": %d, \
     \"ops_checked\": %d,\n      \"violations\": %d, \
     \"partition_violations\": %d, \"shards_with_reads\": %d, \
     \"shards_fast\": %d"
    c.reads c.fast c.writes c.failures c.keys_checked
    c.ops_completed c.ops_checked c.violations c.partition c.shards_with_reads
    c.shards_fast
