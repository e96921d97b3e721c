(** End-to-end simulated runs of a storage protocol.

    [Make (P)] drives [P]'s pure state machines over the discrete-event
    engine: it runs each base object in an object host of its own
    ({!Object_host}: honest or Byzantine, restarted with kept or wiped
    state, with a reply cache that never fires here), runs each client
    process on a round driver of its own ({!Driver}: one outstanding
    operation per client, §2.2, each round a broadcast to objects
    1..S), records every process's events into one {!Record} log, whose
    history the {!Histories} checkers judge, and accumulates the
    per-operation metrics (latency, rounds, reply bytes) the experiments
    tabulate. *)

module Make (P : Protocol_intf.S) : sig
  (** The faults a run injects: the devices a fault-injection campaign
      composes.  [Byzantine] casts are installed before the run, in
      object order (each splits the engine's RNG); the others are
      scheduled in list order.  All times are absolute virtual times;
      windows are half-open [[from_, until)].  No object is cast
      twice. *)
  type fault =
    | Byzantine of { obj : int; factory : P.msg Byz.factory }
        (** object [obj] runs the given behaviour from the start *)
    | Switch of { obj : int; at : int; factory : P.msg Byz.factory }
        (** object [obj] turns Byzantine mid-run with the given
            behaviour; its honest state waits, unread, for a [Recover]
            without [wipe] *)
    | Crash of { proc : Sim.Proc_id.t; at : int }
    | Recover of { obj : int; at : int; wipe : bool }
        (** restart base object [obj]: clear its crash flag and make it
            honest again ({!Object_host.restart}) — with freshly
            initialized state if [wipe], with the state persisted at
            crash time otherwise.  Messages dropped while it was down
            stay lost. *)
    | Block of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        from_ : int;
        until : int;
      }  (** transient one-way link outage (messages buffered, not lost) *)
    | Isolate of { obj : int; from_ : int; until : int }
        (** transient partition: block every link to and from [obj] *)
    | Duplicate of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        copies : int;
        from_ : int;
        until : int;
      }  (** the link delivers [1 + copies] copies of each message *)

  type report = {
    history : string Histories.Op.t list;
        (** the run's operation history (⊥ mapped to
            {!Histories.Op.Bottom}), recorded by {!Record}: each
            complete op carries its times, result and rounds, and an op
            that never responded stays open *)
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
    ?faults:fault list ->
    ?metrics:Obs.Metrics.t ->
    ?clock:(unit -> float) ->
    cfg:Quorum.Config.t ->
    seed:int ->
    delay:Sim.Delay.t ->
    Schedule.t ->
    report
  (** Execute the schedule to quiescence (or [max_events], default 1e6).
      Deterministic in [(cfg, seed, delay, faults, schedule)]; [faults]
      defaults to none.

      With [metrics], the run populates the registry: engine counters
      and queue-depth histograms, per-class wire counters, and
      per-operation histograms derived from the spans ([op.read.rounds],
      [op.write.latency], ...).  [clock] additionally meters host
      wall-clock per simulated event (see {!Sim.Engine.create}); leave
      it unset wherever determinism matters.
      @raise Invalid_argument if an automaton refuses to start an
      operation. *)
end
