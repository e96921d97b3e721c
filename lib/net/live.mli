(** The live execution backend for fault campaigns: the same
    {!Fault.Plan} values the simulator runs, injected into a real
    socket cluster.

    One exhaustive fold over the plan's actions compiles it for a live
    run: crash/recover actions become timed calls of
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
    engine per paper process ({!Cluster.processes}), all driven from one
    loop ({!Cluster.drive}; faults first at a shared tick, as in the
    simulator), and the verdict comes from {!Fault.Campaign.judge}, as
    the simulator's does.  A live run is quiescent once the loop
    returns: operations that exhausted their retries remain open in the
    history and surface as wait-freedom violations.

    Determinism: a live run itself is {e not} deterministic (real
    scheduling, real clocks), but its (protocol, cfg, seed, plan)
    coordinates are.  The bridge back to the simulator is
    {!Fault.Campaign.violates} and {!Fault.Shrink.minimize} on those
    coordinates, as [robustread chaos --backend=live] runs them: the
    simulator re-executes the exact same plan, so a live-found
    counterexample shrinks to the same minimal witness on every
    replay. *)

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
(** The protocol's wire pack, if it has a codec: safe, regular,
    regular-opt, regular-gc, abd and abd-atomic do; the symbolic-only
    baselines cannot run live.  [Regular_gc]'s objects are sized for
    {!Fault.Campaign.workload_readers} (two) readers, so a third reader
    may need entries they already pruned: the cluster CLI sizes
    {!Protocols.regular_gc} by its real reader count instead. *)

val backend : ?opts:opts -> unit -> Fault.Campaign.backend
(** This module as a campaign backend (name ["live"]), the one way to
    run a plan live: its [backend_run] executes one (seed, plan) against
    a fresh cluster and checks the history, and the whole sweep/matrix
    machinery runs on it unchanged.  With [metrics], the cluster's
    merged registry (including [op.reconnects], wire counters and per-op
    rounds/latency) folds into it.  [backend_run] raises [Failure] on a
    protocol {!protocol_of} has no pack for. *)
