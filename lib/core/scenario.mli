(** End-to-end simulated runs of a storage protocol.

    [Make (P)] drives [P]'s pure state machines over the discrete-event
    engine: it runs each base object in an object host of its own
    ({!Object_host}: honest or Byzantine, restarted with kept or wiped
    state, with a reply cache that never fires here), runs each client
    process on a round driver of its own ({!Driver}: one outstanding
    operation per client, §2.2, each round a broadcast to objects
    1..S), records the resulting history for the {!Histories} checkers,
    and accumulates the per-operation metrics (latency, rounds, reply
    bytes) the experiments tabulate. *)

module Make (P : Protocol_intf.S) : sig
  type fault_plan = {
    crashes : (Sim.Proc_id.t * int) list;  (** process, crash time *)
    byzantine : (int * P.msg Byz.factory) list;  (** object index, behaviour *)
  }

  val no_faults : fault_plan

  (** Scripted chaos events, beyond the static [fault_plan]: the devices
      a fault-injection campaign composes.  All times are absolute
      virtual times; windows are half-open [[from_, until)]. *)
  type chaos_event =
    | Chaos_crash of { proc : Sim.Proc_id.t; at : int }
        (** like [fault_plan.crashes], but schedulable alongside the
            other chaos actions *)
    | Chaos_recover of { obj : int; at : int; wipe : bool }
        (** restart base object [obj]: clear its crash flag and make it
            honest again ({!Object_host.restart}) — with freshly
            initialized state if [wipe], with the state persisted at
            crash time otherwise.  Messages dropped while it was down
            stay lost. *)
    | Chaos_block of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        from_ : int;
        until : int;
      }  (** transient one-way link outage (messages buffered, not lost) *)
    | Chaos_isolate of { obj : int; from_ : int; until : int }
        (** transient partition: block every link to and from [obj] *)
    | Chaos_duplicate of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        copies : int;
        from_ : int;
        until : int;
      }  (** the link delivers [1 + copies] copies of each message *)
    | Chaos_switch of { obj : int; at : int; factory : P.msg Byz.factory }
        (** object [obj] turns Byzantine mid-run with the given
            behaviour; its honest state waits, unread, for a
            [Chaos_recover] without [wipe] *)

  type outcome = {
    op : Schedule.op;
    invoked_at : int;
    completed_at : int;
    rounds : int;
    result : Value.t option;  (** [Some] for reads *)
  }

  type report = {
    history : string Histories.Op.t list;
        (** the run's operation history (⊥ mapped to {!Histories.Op.Bottom}) *)
    outcomes : outcome list;  (** completed operations, completion order *)
    trace : Sim.Trace.t option;
    spans : Obs.Span.t list;
        (** one span per invoked operation, invocation order; spans link
            to the raw trace entries recorded while they were open (when
            tracing) and stay open if the operation never completed *)
    words_to_readers : int;
        (** total abstract size of messages delivered to readers *)
    messages_delivered : int;
    events_processed : int;
    quiescent : bool;
        (** the run drained its event queue (did not hit [max_events]);
            only then is a pending operation a liveness verdict *)
    final_time : int;
  }

  val run :
    ?max_events:int ->
    ?trace:bool ->
    ?chaos:chaos_event list ->
    ?metrics:Obs.Metrics.t ->
    ?clock:(unit -> float) ->
    cfg:Quorum.Config.t ->
    seed:int ->
    delay:Sim.Delay.t ->
    faults:fault_plan ->
    Schedule.t ->
    report
  (** Execute the schedule to quiescence (or [max_events], default 1e6).
      Deterministic in [(cfg, seed, delay, faults, chaos, schedule)].

      With [metrics], the run populates the registry: engine counters
      and queue-depth histograms, per-class wire counters, and
      per-operation histograms derived from the spans ([op.read.rounds],
      [op.write.latency], ...).  [clock] additionally meters host
      wall-clock per simulated event (see {!Sim.Engine.create}); leave
      it unset wherever determinism matters. *)
end
