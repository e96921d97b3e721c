type protocol =
  | Safe
  | Regular
  | Regular_opt
  | Regular_gc
  | Abd
  | Abd_atomic
  | Nonmod
  | Auth
  | Fast_safe
  | Naive_fast

type claim = Histories.Checks.claim = Safety | Regularity | Atomicity

type entry =
  | Entry : {
      automata : (module Core.Protocol_intf.S with type msg = 'm);
      contract : Histories.Checks.contract;
      robust : bool;
      signed : bool;
      design : t:int -> b:int -> Quorum.Config.t;
      strategy : Plan.byz_kind -> 'm Core.Byz.factory;
    }
      -> entry

(* ----- the concrete strategy behind each symbolic attack ----------------- *)

let safe_strategy : Plan.byz_kind -> Core.Messages.t Core.Byz.factory = function
  | Plan.Mute -> Strategies.mute
  | Plan.Forge -> Strategies.forge_high_value ~value:"evil" ~ts_boost:9
  | Plan.Replay -> Strategies.replay_initial
  | Plan.Simulate -> Strategies.simulate_unwritten_write ~value:"ghost" ~ts:9
  | Plan.Defame -> Strategies.defame ~targets:[ 1; 3 ] ~boost:10
  | Plan.Garbage -> Strategies.random_garbage
  | Plan.Flaky { down_from; down_until } ->
      Strategies.crash_recovery ~down_from ~down_until

let history_strategy : Plan.byz_kind -> Core.Messages.t Core.Byz.factory =
  function
  | Plan.Mute -> Strategies.mute
  | Plan.Forge -> Strategies.forge_history ~value:"evil" ~ts_boost:9
  | Plan.Replay | Plan.Flaky _ -> Strategies.stale_history ~keep:1
  | Plan.Simulate -> Strategies.forge_history ~value:"ghost" ~ts_boost:9
  | Plan.Defame -> Strategies.defame_history ~targets:[ 1; 3 ] ~boost:10
  | Plan.Garbage -> Strategies.empty_history

let abd_strategy : Plan.byz_kind -> Baseline.Abd.msg Core.Byz.factory = function
  | Plan.Mute | Plan.Flaky _ -> Core.Byz.silent
  | Plan.Forge | Plan.Replay | Plan.Simulate | Plan.Defame | Plan.Garbage ->
      Baseline.Abd.byz_forge_high ~value:"evil" ~ts_boost:9

let nonmod_strategy : Plan.byz_kind -> Baseline.Nonmod.msg Core.Byz.factory =
  function
  | Plan.Mute | Plan.Flaky _ -> Core.Byz.silent
  | Plan.Replay -> Baseline.Nonmod.byz_stale
  | Plan.Forge | Plan.Simulate | Plan.Defame | Plan.Garbage ->
      Baseline.Nonmod.byz_forge_high ~value:"evil" ~ts_boost:9

let auth_strategy : Plan.byz_kind -> Baseline.Auth.msg Core.Byz.factory =
  function
  | Plan.Mute | Plan.Flaky _ -> Core.Byz.silent
  | Plan.Replay -> Baseline.Auth.byz_replay_stale
  | Plan.Forge | Plan.Simulate | Plan.Defame | Plan.Garbage ->
      Baseline.Auth.byz_forge ~value:"evil" ~ts_boost:9

let fast_safe_strategy : Plan.byz_kind -> Baseline.Fast_safe.msg Core.Byz.factory
    = function
  | Plan.Mute | Plan.Flaky _ -> Core.Byz.silent
  | Plan.Forge | Plan.Defame | Plan.Garbage ->
      Baseline.Fast_safe.byz_forge_high ~value:"evil" ~ts_boost:9
  | Plan.Replay | Plan.Simulate ->
      Baseline.Fast_safe.byz_endorse_forgery ~value:"ghost" ~ts:9

let naive_strategy : Plan.byz_kind -> Baseline.Naive_fast.msg Core.Byz.factory =
  function
  | Plan.Mute | Plan.Flaky _ -> Core.Byz.silent
  | Plan.Forge | Plan.Defame | Plan.Garbage ->
      Baseline.Naive_fast.byz_forge_high ~value:"ghost" ~ts_boost:9
  | Plan.Replay -> Baseline.Naive_fast.byz_replay_initial
  | Plan.Simulate -> Baseline.Naive_fast.byz_simulate_write ~value:"ghost" ~ts:9

(* ----- the protocol table ------------------------------------------------ *)

let workload_readers = 2

(* The §5.1 cached/suffix variant, its floor set sized to the workloads'
   two readers (r1 and r2). *)
module Regular_gc2 = Core.Proto_regular_gc.Make (struct
  let readers = workload_readers
end)

let optimal ~t ~b = Quorum.Config.optimal ~t ~b

(* ABD's design regime: crash faults only. *)
let crash_only ~t ~b:_ = Quorum.Config.make_exn ~s:((2 * t) + 1) ~t ~b:0

let fast_read ~t ~b = Quorum.Config.make_exn ~s:((2 * t) + (2 * b) + 1) ~t ~b

(* The doomed regime of Proposition 1: one object below the fast-read
   threshold. *)
let below_fast_read ~t ~b = Quorum.Config.make_exn ~s:(2 * (t + b)) ~t ~b

let row (type m) (automata : (module Core.Protocol_intf.S with type msg = m))
    claim ~rounds:(write_rounds, read_rounds) ~design ~robust ~signed strategy =
  let contract = { Histories.Checks.claim; write_rounds; read_rounds } in
  Entry { automata; contract; robust; signed; design; strategy }

let entry = function
  | Safe ->
      row (module Core.Proto_safe) Safety ~rounds:(2, Some 2) ~design:optimal
        ~robust:true ~signed:false safe_strategy
  | Regular ->
      row (module Core.Proto_regular.Plain) Regularity ~rounds:(2, Some 2)
        ~design:optimal ~robust:true ~signed:false history_strategy
  | Regular_opt ->
      row (module Core.Proto_regular.Optimized) Regularity ~rounds:(2, Some 2)
        ~design:optimal ~robust:true ~signed:false history_strategy
  | Regular_gc ->
      row (module Regular_gc2) Regularity ~rounds:(2, Some 2) ~design:optimal
        ~robust:true ~signed:false history_strategy
  | Abd ->
      row (module Baseline.Abd.Regular) Regularity ~rounds:(1, Some 1)
        ~design:crash_only ~robust:true ~signed:false abd_strategy
  | Abd_atomic ->
      row (module Baseline.Abd.Atomic) Atomicity ~rounds:(1, Some 2)
        ~design:crash_only ~robust:true ~signed:false abd_strategy
  | Nonmod ->
      (* its polling reader rereads until it sees a stable value *)
      row (module Baseline.Nonmod) Safety ~rounds:(2, None) ~design:optimal
        ~robust:true ~signed:false nonmod_strategy
  | Auth ->
      row (module Baseline.Auth) Regularity ~rounds:(1, Some 1) ~design:optimal
        ~robust:true ~signed:true auth_strategy
  | Fast_safe ->
      row (module Baseline.Fast_safe) Safety ~rounds:(1, Some 1)
        ~design:fast_read ~robust:true ~signed:false fast_safe_strategy
  | Naive_fast ->
      row (module Baseline.Naive_fast) Safety ~rounds:(1, Some 1)
        ~design:below_fast_read ~robust:false ~signed:false naive_strategy

let protocols =
  [
    Safe; Regular; Regular_opt; Regular_gc; Abd; Abd_atomic; Nonmod; Auth;
    Fast_safe; Naive_fast;
  ]

let protocol_name p =
  let (Entry { automata = (module P); _ }) = entry p in
  P.name

let protocol_of_string s = List.find_opt (fun p -> protocol_name p = s) protocols

let contract p =
  let (Entry e) = entry p in
  e.contract

let robust p =
  let (Entry e) = entry p in
  e.robust

let default_cfg p ~t ~b =
  let (Entry e) = entry p in
  e.design ~t ~b

let campaign_protocols = [ Safe; Regular; Regular_opt; Abd; Fast_safe; Naive_fast ]

let robust_protocols = List.filter robust campaign_protocols

(* ----- running one (seed, plan) ----------------------------------------- *)

type verdict = {
  safety : int;
  regularity : int;
  violations : (int * string Histories.Checks.violation) list;
  rounds : int;
  liveness : int;
  checked : int;
  completed : int;
  total : int;
  quiescent : bool;
}

let judge protocol ~quiescent ~completed ~total histories =
  let (Entry e) = entry protocol in
  let judge = Histories.Checks.judge e.contract ~equal:String.equal ~quiescent in
  let judged = List.map (fun (key, h) -> (key, judge h)) histories in
  let count f l = List.fold_left (fun n (_, x) -> n + List.length (f x)) 0 l in
  let keyed (key, j) = List.map (fun v -> (key, v)) j.Histories.Checks.claimed in
  {
    safety = count (fun j -> j.Histories.Checks.safety) judged;
    regularity = count (fun j -> j.Histories.Checks.regularity) judged;
    violations = List.concat_map keyed judged;
    rounds = count (fun j -> j.Histories.Checks.rounds) judged;
    liveness = count (fun j -> j.Histories.Checks.liveness) judged;
    checked = count (List.filter Histories.Op.is_complete) histories;
    completed;
    total;
    quiescent;
  }

(* The campaign workload every backend runs a plan under: a quiet
   sequential spine (so safety constrains every run) merged with the
   paper's read-mostly traffic.  Deterministic in (seed, horizon) — the
   live backend replays the exact same schedule at scaled wall-clock
   times, which is what makes live histories comparable to simulated
   ones. *)
let workload ~seed ~(plan : Plan.t) =
  let rng = Sim.Prng.create ~seed in
  Core.Schedule.merge
    (Workload.Generate.sequential ~writes:4 ~readers:workload_readers ~gap:60)
    (Workload.Generate.read_mostly ~rng ~writes:0 ~readers:workload_readers
       ~reads_per_reader:4 ~horizon:plan.Plan.horizon)

(* Simulated events one run may take before it counts as incomplete. *)
let max_events = 2_000_000

let run_plan ?metrics protocol ~cfg ~seed (plan : Plan.t) =
  let (Entry { automata = (module P); strategy; _ }) = entry protocol in
  let module Sc = Core.Scenario.Make (P) in
  (* The plan stages into the scenario's fault configuration: initial
     Byzantine casts, newest first, and chaos events in action order
     (each carries its own [at]). *)
  let byzantine, rev_chaos =
    List.fold_left
      (fun (byz, chaos) -> function
        | Plan.Byz { obj; kind } -> ((obj, strategy kind) :: byz, chaos)
        | Plan.Switch { obj; at; kind } ->
            (byz, Sc.Chaos_switch { obj; at; factory = strategy kind } :: chaos)
        | Plan.Crash { obj; at } ->
            (byz, Sc.Chaos_crash { proc = Sim.Proc_id.Obj obj; at } :: chaos)
        | Plan.Recover { obj; at; wipe } ->
            (byz, Sc.Chaos_recover { obj; at; wipe } :: chaos)
        | Plan.Block { src; dst; from_; until } ->
            let src = Plan.proc_id src and dst = Plan.proc_id dst in
            (byz, Sc.Chaos_block { src; dst; from_; until } :: chaos)
        | Plan.Isolate { obj; from_; until } ->
            (byz, Sc.Chaos_isolate { obj; from_; until } :: chaos)
        | Plan.Duplicate { src; dst; copies; from_; until } ->
            let src = Plan.proc_id src and dst = Plan.proc_id dst in
            (byz, Sc.Chaos_duplicate { src; dst; copies; from_; until } :: chaos))
      ([], []) plan.Plan.actions
  in
  let schedule = workload ~seed ~plan in
  let rep =
    Sc.run ~max_events ?metrics ~cfg ~seed
      ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
      ~chaos:(List.rev rev_chaos) ~faults:{ Sc.crashes = []; byzantine }
      schedule
  in
  judge protocol ~quiescent:rep.quiescent
    ~completed:(List.length rep.outcomes)
    ~total:(List.length schedule) [ (0, rep.history) ]

(* ----- execution backends ------------------------------------------------ *)

(* A backend is anything that can execute one (seed, plan) and produce a
   verdict: the simulator above, or a live socket cluster
   ({!Net.Live.backend}).  First-class records rather than functors so a
   backend can be picked at runtime from a CLI flag and threaded through
   the sweeps unchanged. *)
type backend = {
  backend_name : string;
  backend_run :
    ?metrics:Obs.Metrics.t ->
    protocol ->
    cfg:Quorum.Config.t ->
    seed:int ->
    Plan.t ->
    verdict;
}

let sim_backend =
  {
    backend_name = "sim";
    backend_run =
      (fun ?metrics protocol ~cfg ~seed plan ->
        run_plan ?metrics protocol ~cfg ~seed plan);
  }

(* A run breaks a protocol's contract if it violates the property the
   table says the protocol claims, its round bounds, or wait-freedom. *)
let breaches v = List.length v.violations + v.rounds + v.liveness

let violates protocol ~cfg ~seed plan =
  breaches (run_plan protocol ~cfg ~seed plan) > 0

(* ----- sweeping seeds x plans x protocols -------------------------------- *)

type cell_error = { seed : int; plan : Plan.t; error : string }

type cell = {
  protocol : protocol;
  cfg : Quorum.Config.t;
  runs : int;
  safety_runs : int;
  regularity_runs : int;
  rounds_runs : int;
  liveness_runs : int;
  incomplete_runs : int;
  failures : (int * Plan.t) list;  (** (seed, plan) witnesses, in order *)
  errors : cell_error list;  (** runs that raised, in order *)
  metrics : Obs.Metrics.t;
}

let run_plan_result ?(backend = sim_backend) ?metrics protocol ~cfg ~seed plan =
  match backend.backend_run ?metrics protocol ~cfg ~seed plan with
  | v -> Ok v
  | exception e -> Error { seed; plan; error = Printexc.to_string e }

let empty_cell protocol cfg metrics =
  {
    protocol;
    cfg;
    runs = 0;
    safety_runs = 0;
    regularity_runs = 0;
    rounds_runs = 0;
    liveness_runs = 0;
    incomplete_runs = 0;
    failures = [];
    errors = [];
    metrics;
  }

(* The per-seed unit of parallel work: a cell of [plans_per_seed] plans
   drawn from the seed's own PRNG, tallied into the seed's own registry.
   A unit is a pure function of (protocol, cfg, seed), which is what lets
   the domain pool fan units out in any order and still reduce to the
   exact serial result: counters add, failure/error lists concatenate in
   seed order, and the PR-2 histogram algebra makes the registry merge
   associative and commutative. *)
let sweep_seed ?backend ~budget ~plans_per_seed protocol ~cfg ~seed =
  let metrics = Obs.Metrics.create () in
  let rng = Sim.Prng.create ~seed in
  let count n hit = if hit then n + 1 else n in
  let tally c plan =
    match run_plan_result ?backend ~metrics protocol ~cfg ~seed plan with
    | Error e ->
        (* A raising run is a campaign finding, not a sweep abort: the
           structured error surfaces in the matrix alongside the seeds
           that did run. *)
        { c with errors = e :: c.errors }
    | Ok v ->
        {
          c with
          runs = c.runs + 1;
          safety_runs = count c.safety_runs (v.safety > 0);
          regularity_runs = count c.regularity_runs (v.regularity > 0);
          rounds_runs = count c.rounds_runs (v.rounds > 0);
          liveness_runs = count c.liveness_runs (v.liveness > 0);
          incomplete_runs = count c.incomplete_runs (not v.quiescent);
          failures =
            (if breaches v > 0 then (seed, plan) :: c.failures
             else c.failures);
        }
  in
  let c = ref (empty_cell protocol cfg metrics) in
  for _ = 1 to plans_per_seed do
    c := tally !c (Plan.gen ~rng ~cfg ~budget)
  done;
  { !c with failures = List.rev !c.failures; errors = List.rev !c.errors }

(* Ordered reduction of per-seed cells into one; merging in seed order
   keeps every derived artifact (matrix, metrics table, JSONL exports)
   byte-identical whatever the execution interleaving was. *)
let assemble_cell protocol cfg cells =
  let metrics = Obs.Metrics.create () in
  List.fold_left
    (fun a c ->
      Obs.Metrics.merge_into ~dst:metrics c.metrics;
      {
        a with
        runs = a.runs + c.runs;
        safety_runs = a.safety_runs + c.safety_runs;
        regularity_runs = a.regularity_runs + c.regularity_runs;
        rounds_runs = a.rounds_runs + c.rounds_runs;
        liveness_runs = a.liveness_runs + c.liveness_runs;
        incomplete_runs = a.incomplete_runs + c.incomplete_runs;
        failures = a.failures @ c.failures;
        errors = a.errors @ c.errors;
      })
    (empty_cell protocol cfg metrics)
    cells

let sweep ?jobs ?backend ?(budget = Plan.medium)
    ?(plans_per_seed = 3) ~protocols ~t ~b ~seeds () =
  (* Fan the full protocol x seed matrix through one pool so a slow cell
     in one protocol overlaps the others, then regroup per protocol in
     input order. *)
  let cfgs = List.map (fun p -> (p, default_cfg p ~t ~b)) protocols in
  let tasks =
    List.concat_map
      (fun (p, cfg) -> List.map (fun seed -> (p, cfg, seed)) seeds)
      cfgs
  in
  let units =
    Exec.Pool.map ?jobs
      (fun (p, cfg, seed) ->
        sweep_seed ?backend ~budget ~plans_per_seed p ~cfg ~seed)
      tasks
  in
  let nseeds = List.length seeds in
  List.mapi
    (fun i (p, cfg) ->
      let mine =
        List.filteri (fun j _ -> j >= i * nseeds && j < (i + 1) * nseeds) units
      in
      assemble_cell p cfg mine)
    cfgs

(* ----- survival matrix --------------------------------------------------- *)

(* Proposition 1 needs a Byzantine object: crash-only campaigns cannot
   break even the naive fast reader's safety. *)
let cell_verdict c =
  let expected_broken = (not (robust c.protocol)) && c.cfg.Quorum.Config.b > 0 in
  match (c.errors, c.failures, expected_broken) with
  | _ :: _, _, _ -> "ERROR"
  | [], [], false -> "survives"
  | [], [], true -> "UNEXPECTED: survives"
  | [], _ :: _, true -> "broken (expected)"
  | [], _ :: _, false -> "BROKEN"

let matrix_table cells =
  let table =
    Stats.Table.create
      ~headers:
        [
          "protocol"; "S"; "t"; "b"; "runs"; "safety"; "regular"; "rounds";
          "liveness"; "errors"; "verdict";
        ]
  in
  List.iter
    (fun c ->
      let verdict = cell_verdict c in
      Stats.Table.add_row table
        [
          protocol_name c.protocol;
          Stats.Table.cell_int c.cfg.Quorum.Config.s;
          Stats.Table.cell_int c.cfg.Quorum.Config.t;
          Stats.Table.cell_int c.cfg.Quorum.Config.b;
          Stats.Table.cell_int c.runs;
          Printf.sprintf "%d/%d" (c.runs - c.safety_runs) c.runs;
          Printf.sprintf "%d/%d" (c.runs - c.regularity_runs) c.runs;
          Printf.sprintf "%d/%d" (c.runs - c.rounds_runs) c.runs;
          Printf.sprintf "%d/%d" (c.runs - c.liveness_runs) c.runs;
          Stats.Table.cell_int (List.length c.errors);
          verdict;
        ])
    cells;
  table

(* ----- per-cell metrics --------------------------------------------------- *)

(* Exact round-count distribution, e.g. "1:0 2:64" — round counts are
   tiny integers, so the histogram buckets are the counts themselves. *)
let round_histogram_cell c name =
  match Obs.Metrics.find_histogram c.metrics name with
  | None -> "-"
  | Some h when Obs.Metrics.Histogram.count h = 0 -> "-"
  | Some h ->
      Obs.Metrics.Histogram.buckets h
      |> List.filter_map (fun (_, hi, count) ->
             if count = 0 then None
             else if Float.is_finite hi then
               Some (Printf.sprintf "%.0f:%d" hi count)
             else Some (Printf.sprintf ">:%d" count))
      |> String.concat " "

let metrics_table cells =
  let table =
    Stats.Table.create
      ~headers:
        [
          "protocol"; "reads"; "read rounds"; "writes"; "write rounds";
          "open ops"; "delivered"; "queue p99";
        ]
  in
  List.iter
    (fun c ->
      let m = c.metrics in
      let hist_count name =
        match Obs.Metrics.find_histogram m name with
        | None -> 0
        | Some h -> Obs.Metrics.Histogram.count h
      in
      let queue_p99 =
        match Obs.Metrics.find_histogram m "engine.queue_depth" with
        | Some h when Obs.Metrics.Histogram.count h > 0 ->
            Printf.sprintf "%g" (Obs.Metrics.Histogram.quantile h 99.0)
        | Some _ | None -> "-"
      in
      Stats.Table.add_row table
        [
          protocol_name c.protocol;
          Stats.Table.cell_int (hist_count "op.read.rounds");
          round_histogram_cell c "op.read.rounds";
          Stats.Table.cell_int (hist_count "op.write.rounds");
          round_histogram_cell c "op.write.rounds";
          Stats.Table.cell_int
            (Obs.Metrics.counter_value m "op.read.open"
            + Obs.Metrics.counter_value m "op.write.open");
          Stats.Table.cell_int (Obs.Metrics.counter_value m "engine.delivered");
          queue_p99;
        ])
    cells;
  table

(* ----- machine-readable matrix ------------------------------------------- *)

(* One JSON object per cell, one line per object — the schema is shared
   by both backends (that is the point: a sim matrix and a live matrix
   of the same campaign diff cleanly).  Witness plans are embedded in
   their compact one-line rendering, the same form the CLI prints. *)
let matrix_jsonl ?(backend = "sim") cells =
  let open Obs.Export.Json in
  String.concat ""
    (List.map
       (fun c ->
         to_string
           (Obj
              [
                ("backend", Str backend);
                ("protocol", Str (protocol_name c.protocol));
                ("s", Int c.cfg.Quorum.Config.s);
                ("t", Int c.cfg.Quorum.Config.t);
                ("b", Int c.cfg.Quorum.Config.b);
                ("runs", Int c.runs);
                ("safety_ok", Int (c.runs - c.safety_runs));
                ("regularity_ok", Int (c.runs - c.regularity_runs));
                ("rounds_ok", Int (c.runs - c.rounds_runs));
                ("liveness_ok", Int (c.runs - c.liveness_runs));
                ("incomplete", Int c.incomplete_runs);
                ("errors", Int (List.length c.errors));
                ("verdict", Str (cell_verdict c));
                ( "witnesses",
                  List
                    (List.map
                       (fun (seed, plan) ->
                         Obj
                           [
                             ("seed", Int seed);
                             ("plan", Str (Plan.to_compact plan));
                           ])
                       c.failures) );
              ])
         ^ "\n")
       cells)
