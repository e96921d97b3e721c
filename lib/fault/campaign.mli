(** The protocol table, and chaos campaigns judged by it.

    {!entry} is the one place the repository names each protocol it
    runs: its automata, the property it claims (paper §2.2), the
    configuration it is designed for, and the concrete strategy behind
    each symbolic attack.  The CLI, the experiments and the live
    backend look protocols up here.

    A campaign sweeps seeds × fault plans × protocols and reports a
    survival matrix.  It draws random {!Plan}s within the resilience
    budget of each protocol's design configuration, compiles the
    symbolic Byzantine kinds through the protocol's strategy, runs the
    scenario, and holds the history to the property the protocol claims
    plus the wait-freedom watchdog.  The robust protocols must survive
    every within-budget plan (Theorems 1–4); [naive-fast] at
    [s = 2t + 2b] is the negative control Proposition 1 dooms, and its
    failures feed the {!Shrink} minimizer. *)

(** {2 The protocol table} *)

type protocol =
  | Safe
  | Regular
  | Regular_opt
  | Regular_gc  (** floors sized for {!workload_readers} readers *)
  | Abd
  | Abd_atomic
  | Nonmod
  | Auth
  | Fast_safe
  | Naive_fast

(** The register property a protocol claims (paper §2.2). *)
type claim = Safety | Regularity | Atomicity

type entry =
  | Entry : {
      automata : (module Core.Protocol_intf.S with type msg = 'm);
          (** its [name] is the protocol's name *)
      claim : claim;
      robust : bool;
          (** must survive every within-budget plan; [false] only for the
              negative control Proposition 1 dooms *)
      signed : bool;
          (** values carry the writer's signature, so no object can
              forge one and Proposition 1's construction does not
              apply *)
      design : t:int -> b:int -> Quorum.Config.t;
          (** the configuration it is designed for *)
      strategy : Plan.byz_kind -> 'm Core.Byz.factory;
          (** the concrete strategy behind each symbolic attack *)
    }
      -> entry

val entry : protocol -> entry

val protocols : protocol list
(** Every table entry: safe, regular, regular-opt, regular-gc, abd,
    abd-atomic, nonmod, auth, fast-safe, naive-fast. *)

val protocol_name : protocol -> string

val protocol_of_string : string -> protocol option

val claim : protocol -> claim
(** Safety for safe, nonmod, fast-safe and naive-fast; regularity for
    regular, regular-opt, regular-gc, abd and auth; atomicity for
    abd-atomic. *)

val claim_name : claim -> string
(** ["safety"], ["regularity"] or ["atomicity"]. *)

val check :
  claim -> string Histories.Op.t list -> string Histories.Checks.violation list
(** Violations of exactly the property [claim] names, on one register's
    history.  Safe storage never promises regularity, so a safe run is
    held to safety alone. *)

val robust : protocol -> bool

val default_cfg : protocol -> t:int -> b:int -> Quorum.Config.t
(** The configuration the protocol is designed for: optimal [2t+b+1]
    for the paper's protocols and the nonmodifying and authenticated
    baselines, [2t+1] crash-only for ABD, [2t+2b+1] for fast-safe — and
    the doomed [2t+2b] for [Naive_fast]. *)

val campaign_protocols : protocol list
(** The protocols a campaign sweeps by default: safe, regular,
    regular-opt, abd, fast-safe and naive-fast. *)

val robust_protocols : protocol list
(** {!campaign_protocols} without the negative control — the ones
    expected to survive. *)

(** {2 Single runs} *)

type verdict = {
  safety : int;  (** safety violations found *)
  regularity : int;
  claimed : int;  (** violations of the property the protocol claims *)
  liveness : int;  (** wait-freedom violations (0 unless [quiescent]) *)
  completed : int;  (** operations that completed *)
  total : int;  (** operations scheduled *)
  quiescent : bool;  (** the run drained its event queue *)
  spans : Obs.Span.t list;  (** per-operation spans, invocation order *)
}

val judge :
  protocol ->
  quiescent:bool ->
  completed:int ->
  total:int ->
  spans:Obs.Span.t list ->
  string Histories.Op.t list ->
  verdict
(** Hold one run's history to the checkers: safety and regularity
    counted for the survival matrix, the protocol's {!claim} for the
    verdict, wait-freedom once the run is [quiescent].  Every backend
    builds its verdicts here. *)

val workload : seed:int -> plan:Plan.t -> Core.Schedule.t
(** The campaign workload a plan is judged under: a sequential spine
    merged with seeded read-mostly traffic over the plan's horizon.
    Deterministic in [(seed, plan.horizon)] — every backend runs this
    exact schedule, which is what makes a live history comparable to
    the simulated replay of the same (seed, plan). *)

val workload_readers : int
(** Number of reader processes {!workload} schedules (the live backend
    sizes its cluster from this, and [Regular_gc]'s floor set). *)

val run_plan :
  ?max_events:int ->
  ?metrics:Obs.Metrics.t ->
  protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Plan.t ->
  verdict
(** Execute one (seed, plan) against [protocol] at [cfg] {e in the
    simulator} and check the history.  Deterministic in
    [(protocol, cfg, seed, plan)].  With [metrics], the run's
    observations accumulate into the registry (pass the same registry
    to many runs to aggregate a cell). *)

type backend = {
  backend_name : string;  (** ["sim"], ["live"], … — labels exports *)
  backend_run :
    ?metrics:Obs.Metrics.t ->
    protocol ->
    cfg:Quorum.Config.t ->
    seed:int ->
    Plan.t ->
    verdict;
}
(** An execution backend: anything that can run one (seed, plan) via
    {!Injector.apply} and produce a {!verdict} from the checkers.  The
    simulator is {!sim_backend}; [Net.Live.backend] drives a real
    socket cluster.  The same {!Plan.t} value runs unchanged on any
    backend — sweeps, matrices and the shrinker are parameterized over
    this record. *)

val sim_backend : backend
(** The default: {!run_plan} at its default event bound. *)

val verdict_violates : verdict -> bool
(** Did this verdict break the protocol's contract: a violation of the
    property it claims, or of wait-freedom? *)

val violates :
  ?max_events:int ->
  ?backend:backend ->
  protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Plan.t ->
  bool
(** The shrinker's repro predicate: {!verdict_violates} of one run on
    [backend] (default {!sim_backend}; [max_events] applies to the sim
    backend only). *)

(** {2 Sweeps} *)

type cell_error = {
  seed : int;
  plan : Plan.t;
  error : string;  (** [Printexc.to_string] of the raised exception *)
}
(** A run that raised instead of producing a verdict.  Errors are
    campaign findings: they surface in the matrix (verdict [ERROR])
    with their (seed, plan) reproduction instead of aborting the whole
    sweep. *)

type cell = {
  protocol : protocol;
  cfg : Quorum.Config.t;
  runs : int;
  safety_runs : int;  (** runs with ≥ 1 safety violation *)
  regularity_runs : int;
  liveness_runs : int;
  incomplete_runs : int;  (** runs that hit [max_events] *)
  failures : (int * Plan.t) list;  (** (seed, plan) witnesses, in order *)
  errors : cell_error list;  (** runs that raised, in order *)
  metrics : Obs.Metrics.t;
      (** merged observability registry over every run in the cell:
          round-count/latency histograms, wire counters, queue depth *)
}

val run_plan_result :
  ?max_events:int ->
  ?backend:backend ->
  ?metrics:Obs.Metrics.t ->
  protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Plan.t ->
  (verdict, cell_error) result
(** One run on [backend] (default {!sim_backend}) with the sweep's
    error containment: a raising run becomes a structured [Error]
    instead of propagating. *)

val sweep_protocol :
  ?jobs:int ->
  ?max_events:int ->
  ?backend:backend ->
  ?budget:Plan.budget ->
  ?plans_per_seed:int ->
  protocol ->
  t:int ->
  b:int ->
  seeds:int list ->
  cell
(** Run [plans_per_seed] (default 3) random plans per seed (drawn from a
    per-seed PRNG, so the campaign is reproducible) at
    [default_cfg protocol ~t ~b].

    With [jobs] (default {!Exec.Pool.recommended_jobs}), seeds are
    fanned across an OCaml 5 domain pool; each seed is an isolated
    simulation (own engine, PRNG and metrics registry built from the
    seed) and the per-seed results reduce in seed order, so the cell —
    including its merged registry and every export derived from it — is
    byte-identical to the serial ([jobs = 1]) sweep. *)

val sweep :
  ?jobs:int ->
  ?max_events:int ->
  ?backend:backend ->
  ?budget:Plan.budget ->
  ?plans_per_seed:int ->
  protocols:protocol list ->
  t:int ->
  b:int ->
  seeds:int list ->
  unit ->
  cell list
(** Sweep the whole protocol x seed matrix through one domain pool (a
    slow cell in one protocol overlaps work from the others); results
    are deterministic in the inputs and independent of [jobs].  With a
    non-sim [backend], run with [jobs:1]: a live backend owns real
    sockets and one wall clock, so parallel cells would contend for
    both. *)

val matrix_table : cell list -> Stats.Table.t
(** The survival matrix: one row per protocol with per-property
    survival counts and a verdict ([Naive_fast] is {e expected} to
    break). *)

val metrics_table : cell list -> Stats.Table.t
(** One row per campaign cell: completed read/write counts, the exact
    round-count distributions (e.g. ["2:64"] — the paper's 2-round
    claim made visible per cell), open operations, delivered messages
    and queue-depth p99. *)

val cell_verdict : cell -> string
(** ["survives"], ["violates"], or ["errors"] — the summary judgement
    both the table and the JSONL matrix print for a cell. *)

val matrix_jsonl : ?backend:string -> cell list -> string
(** The survival matrix as JSON Lines, one object per cell, in the
    {e same schema for every backend} (tagged with [backend], default
    ["sim"]): survival counts per property, the verdict, and each
    failure witness as its (seed, compact plan) reproduction. *)
