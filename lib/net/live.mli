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
(** The wire pack of the protocol's name, if it has a codec: safe,
    regular, regular-opt, regular-gc, abd and abd-atomic do; the
    symbolic-only baselines cannot run live. *)

val backend : ?opts:opts -> unit -> Fault.Campaign.backend
(** This module as a campaign backend (name ["live"]), the one way to
    run a plan live: its [backend_run] executes one (seed, plan) against
    a fresh cluster and checks the history, and the whole sweep/matrix
    machinery runs on it unchanged.  With [metrics], the cluster's
    merged registry (including [op.reconnects], wire counters and per-op
    rounds/latency) folds into it.  [backend_run] raises [Failure] on a
    protocol {!protocol_of} has no pack for. *)
