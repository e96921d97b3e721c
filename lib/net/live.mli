(** The live execution backend for fault campaigns: the same
    {!Fault.Plan} values the simulator runs, injected into a real
    socket cluster.

    {!Fault.Injector.apply} compiles a plan into this backend's context:
    crash/recover actions become a timed driver thread calling
    {!Cluster.crash}/{!Cluster.restart} (persisted or wiped), and every
    network/Byzantine action becomes {!Chaos} rule windows that each
    object's server applies in its own worker loop ({!Cluster.set_rules}:
    [Mute] drops an object's replies, the lying kinds corrupt them past
    the frame header — a real garbage-speaking replica —
    [Block]/[Isolate]/[Duplicate] map to windowed drop/duplicate rules on
    the matching link directions, aimed at the plan's
    {!Fault.Plan.proc_id}).  Virtual plan ticks scale to wall-clock
    microseconds by [tick_us].

    The run then replays {e the campaign's own workload} —
    {!Fault.Campaign.workload} of the same (seed, plan) — through one
    engine per paper process ({!Cluster.processes}), each on a thread of
    its own, at scaled invocation times, and the verdict
    comes from the same {!Histories.Checks} oracles the simulator uses.
    A live run is always quiescent once its operation threads join:
    operations that exhausted their retries remain open in the history
    and surface as wait-freedom violations.

    Determinism: a live run itself is {e not} deterministic (real
    scheduling, real clocks) — the {!section-witness} bridge is.  A
    witness captures the (protocol, cfg, seed, plan) coordinates plus
    the observed timeline and history; replaying re-executes the exact
    same plan in the simulator, which {e is} deterministic in those
    coordinates, so a live-found counterexample shrinks to the same
    minimal witness on every replay. *)

type opts = {
  tick_us : int;
      (** wall-clock microseconds per virtual plan tick (default 500:
          a [small]-budget horizon of 800 spans 0.4 s) *)
  client : Client.opts;
      (** per-operation patience; total patience per op must exceed the
          longest plan window so transient outages stall rather than
          kill within-budget operations *)
  transport : [ `Unix | `Tcp ];
}

val default_opts : opts

val protocol_of : Fault.Campaign.protocol -> Protocols.t option
(** The wire pack of the protocol's name, if it has a codec: safe,
    regular, regular-opt, regular-gc, abd and abd-atomic do; the
    symbolic-only baselines cannot run live. *)

val run_plan :
  ?metrics:Obs.Metrics.t ->
  ?opts:opts ->
  Fault.Campaign.protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Fault.Plan.t ->
  Fault.Campaign.verdict
(** Execute one (seed, plan) against a live cluster and check the
    history.  With [metrics], the cluster's merged registry (including
    [op.reconnects], wire counters and per-op rounds/latency) folds
    into it.  @raise Failure on a protocol {!protocol_of} has no pack
    for. *)

(** {2:witness Live-to-sim witness replay} *)

type outcome = {
  verdict : Fault.Campaign.verdict;
  timeline : (int * string) list;
      (** observed fault events, (cluster-clock µs, description) *)
  history : string Histories.Op.t list;
}

type witness = {
  w_protocol : Fault.Campaign.protocol;
  w_cfg : Quorum.Config.t;
  w_seed : int;
  w_plan : Fault.Plan.t;
  w_live : outcome;  (** what the live run observed *)
}

val capture :
  ?opts:opts ->
  Fault.Campaign.protocol ->
  cfg:Quorum.Config.t ->
  seed:int ->
  Fault.Plan.t ->
  witness
(** Run live and package the counterexample coordinates with the
    observed timeline and history. *)

val replay_sim : witness -> Fault.Campaign.verdict
(** Re-execute the witness's (protocol, cfg, seed, plan) in the
    simulator — deterministic: two replays are identical. *)

val replay_reproduces : witness -> bool
(** Does the simulated replay break the same contract the live run
    did ({!Fault.Campaign.verdict_violates})? *)

val replay_shrunk : ?max_attempts:int -> witness -> Fault.Shrink.outcome
(** Delta-debug the witness plan against the {e simulated} repro — the
    cross-backend flagship: a fault sequence found once against real
    sockets becomes a minimal, deterministically replayable simulator
    witness.  @raise Invalid_argument if the replay does not reproduce
    (check {!replay_reproduces} first). *)

val backend : ?opts:opts -> unit -> Fault.Campaign.backend
(** Package this module as a campaign backend (name ["live"]): the
    whole sweep/matrix/shrink machinery then runs against real
    sockets. *)
