(** The protocol table, and chaos campaigns judged by it.

    {!entry} is the one place the repository names each protocol it
    runs: its automata, its contract (the property it claims, paper
    §2.2, and the rounds its writes and reads may take), the
    configuration it is designed for, and the concrete strategy behind
    each symbolic attack.  The CLI, the experiments and the live backend
    look protocols up here, {!judge} holds every simulated and live run
    to its entry's contract, and the model checker holds every terminal
    history to it.

    A campaign sweeps seeds × fault plans × protocols and reports a
    survival matrix.  It draws random {!Plan}s within the resilience
    budget of each protocol's design configuration, compiles the
    symbolic Byzantine kinds through the protocol's strategy, runs the
    scenario, and holds the history to the property the protocol claims,
    its operations to the protocol's round bounds, and the run to the
    wait-freedom watchdog.  The robust protocols must survive
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
type claim = Histories.Checks.claim = Safety | Regularity | Atomicity

type entry =
  | Entry : {
      automata : (module Core.Protocol_intf.S with type msg = 'm);
          (** its [name] is the protocol's name *)
      contract : Histories.Checks.contract;
          (** its claim and round bounds; nonmod's polling reader claims
              no read bound *)
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

val contract : protocol -> Histories.Checks.contract
(** The entry's contract.  It claims safety for safe, nonmod, fast-safe
    and naive-fast; regularity for regular, regular-opt, regular-gc, abd
    and auth; atomicity for abd-atomic. *)

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
  violations : (int * string Histories.Checks.violation) list;
      (** violations of the property the protocol claims, each with its
          key, in key order *)
  rounds : int;  (** completed operations that ran past their round bound *)
  liveness : int;  (** wait-freedom violations (0 unless [quiescent]) *)
  checked : int;  (** complete operations in the judged histories *)
  completed : int;  (** operations that completed *)
  total : int;  (** operations scheduled *)
  quiescent : bool;  (** the run drained its event queue *)
}

val judge :
  protocol ->
  quiescent:bool ->
  completed:int ->
  total:int ->
  (int * string Histories.Op.t list) list ->
  verdict
(** Hold one run to its table entry: {!Histories.Checks.judge} each
    key's history (a single-register run passes key 0) against the
    entry's {!contract}, and sum the findings.  The claim's violations
    keep their key; safety and regularity are counted for the survival
    matrix; each completed op's reported rounds, the automaton's own
    count (so retransmits and widened rounds never count), meet the
    round bounds; and, once the run is [quiescent], each open operation
    meets wait-freedom. *)

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
  ?metrics:Obs.Metrics.t ->
  protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Plan.t ->
  verdict
(** Execute one (seed, plan) against [protocol] at [cfg] {e in the
    simulator}, for at most 2,000,000 events, and check the history.
    Deterministic in [(protocol, cfg, seed, plan)].  With [metrics], the run's
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
(** An execution backend: anything that can run one (seed, plan),
    translating the plan's actions into its own faults with one
    exhaustive match, and produce a {!verdict} from {!judge}.  The
    simulator is {!sim_backend}; [Net.Live.backend] drives a real
    socket cluster.  The same {!Plan.t} value runs unchanged on any
    backend — sweeps, matrices and the shrinker are parameterized over
    this record. *)

val sim_backend : backend
(** The default: {!run_plan}. *)

val breaches : verdict -> int
(** How often this verdict broke the protocol's contract: violations of
    the property it claims, operations past its round bounds, and
    wait-freedom violations, summed.  A run survives at 0. *)

val violates : protocol -> cfg:Quorum.Config.t -> seed:int -> Plan.t -> bool
(** The shrinker's repro predicate: nonzero {!breaches} of one
    {!run_plan}.  A live finding is shrunk by replaying it here. *)

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
  rounds_runs : int;  (** runs with an operation past its round bound *)
  liveness_runs : int;
  incomplete_runs : int;  (** runs that hit {!run_plan}'s event bound *)
  failures : (int * Plan.t) list;  (** (seed, plan) witnesses, in order *)
  errors : cell_error list;  (** runs that raised, in order *)
  metrics : Obs.Metrics.t;
      (** merged observability registry over every run in the cell:
          round-count/latency histograms, wire counters, queue depth *)
}

val run_plan_result :
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

val sweep :
  ?jobs:int ->
  ?backend:backend ->
  ?budget:Plan.budget ->
  ?plans_per_seed:int ->
  protocols:protocol list ->
  t:int ->
  b:int ->
  seeds:int list ->
  unit ->
  cell list
(** One cell per protocol, in order: [plans_per_seed] (default 3)
    random plans per seed, drawn from a per-seed PRNG so the campaign is
    reproducible, at [default_cfg protocol ~t ~b].

    The whole protocol x seed matrix runs through one domain pool of
    [jobs] (default {!Exec.Pool.recommended_jobs}) domains, so a slow
    cell in one protocol overlaps work from the others.  Each seed is an
    isolated simulation (own engine, PRNG and metrics registry built
    from the seed) and the per-seed results reduce in seed order, so
    every cell — including its merged registry and every export derived
    from it — is byte-identical to the serial ([jobs = 1]) sweep.  With
    a non-sim [backend], run with [jobs:1]: a live backend owns real
    sockets and one wall clock, so parallel cells would contend for
    both. *)

val matrix_table : cell list -> Stats.Table.t
(** The survival matrix: one row per protocol with per-property and
    round-bound survival counts and a verdict ([Naive_fast] is {e expected} to
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
    ["sim"]): survival counts per property and for the round bounds,
    the verdict, and each
    failure witness as its (seed, compact plan) reproduction. *)
