(** Deterministic discrete-event simulation engine.

    Realizes the paper's asynchronous message-passing model (§2.1):
    processes take atomic steps on message delivery, channels are reliable
    point-to-point with arbitrary (model-drawn) delays, and at most [t]
    objects may be faulty.  Every run is a pure function of the scenario
    seed: the event queue breaks time ties on a global sequence number and
    all randomness flows from one {!Prng.t}.

    The engine is polymorphic in the protocol's message type ['msg]; each
    protocol library wraps its pure state machines into handlers.

    Link blocking ([block_link] / [unblock_link]) scripts asynchrony: a
    blocked link buffers messages (they are "in transit" in the paper's
    sense) and releases them on unblock — exactly the "delayed until after
    t1" device used throughout the Proposition 1 runs. *)

type 'msg envelope = {
  src : Proc_id.t;
  dst : Proc_id.t;
  sent_at : int;
  msg : 'msg;
}

type 'msg t

val create :
  ?trace:Trace.t ->
  ?msg_info:('msg -> string) ->
  ?metrics:Obs.Metrics.t ->
  ?classify:('msg -> Obs.Wire.t) ->
  ?clock:(unit -> float) ->
  seed:int ->
  delay:Delay.t ->
  unit ->
  'msg t
(** [create ~seed ~delay ()] builds an empty engine.  [msg_info] renders
    messages for the trace (defaults to ["msg"]).

    With [metrics], the engine records event counts, queue-depth
    histograms and sent/delivered/dropped message counters into the
    registry — per message class too when [classify] is given.  With
    [clock] (host seconds, e.g. [Sys.time]), it additionally histograms
    the wall-clock cost of each simulated event; omit it to keep runs
    free of ambient nondeterminism. *)

val rng : 'msg t -> Prng.t
(** The engine's generator; split it rather than sharing when a component
    needs its own stream. *)

val now : 'msg t -> int
(** Current virtual time. *)

val register : 'msg t -> Proc_id.t -> ('msg envelope -> unit) -> unit
(** [register t id handler] installs (or replaces) the delivery handler of
    process [id].  [Core.Scenario] registers each process once; a base
    object turns Byzantine or restarts inside the handler, on its
    [Core.Object_host]. *)

val send : 'msg t -> src:Proc_id.t -> dst:Proc_id.t -> 'msg -> unit
(** Enqueue a message; its delivery time is [now + delay] drawn from the
    model, unless the link is blocked, in which case it is buffered. *)

val at : 'msg t -> time:int -> (unit -> unit) -> unit
(** Schedule an action at an absolute virtual time (>= now). *)

val after : 'msg t -> delay:int -> (unit -> unit) -> unit
(** Schedule an action [delay] units from now. *)

val crash : 'msg t -> Proc_id.t -> unit
(** Crash a process: all its future deliveries are dropped, and envelopes
    already buffered towards it on blocked links are dropped (and counted)
    immediately.  Idempotent. *)

val recover : 'msg t -> Proc_id.t -> unit
(** Undo a {!crash}: subsequent deliveries reach the process's handler
    again.  Messages dropped while it was down stay lost — crash-recovery
    loses in-flight traffic.  The handler is left as it is: the state a
    recovered process resumes with (wiped or persisted) is the handler's
    own business, as [Core.Object_host.restart] is for [Core.Scenario]'s
    objects.  No-op on a live process. *)

val is_crashed : 'msg t -> Proc_id.t -> bool

val block_link : 'msg t -> src:Proc_id.t -> dst:Proc_id.t -> unit
(** Buffer (instead of scheduling) every subsequent message on the link. *)

val unblock_link : 'msg t -> src:Proc_id.t -> dst:Proc_id.t -> unit
(** Release buffered messages on the link; each gets a freshly drawn delay
    from the current time. *)

val block_process : 'msg t -> Proc_id.t -> unit
(** Block every link to and from the given process.  The endpoint list
    is derived from the registered processes and cached across calls. *)

val unblock_process : 'msg t -> Proc_id.t -> unit

val set_duplication : 'msg t -> src:Proc_id.t -> dst:Proc_id.t -> copies:int -> unit
(** Every subsequent send on the link schedules [copies] extra deliveries,
    each with an independently drawn delay — models a duplicating network
    layer (retransmission storms).  [copies = 0] clears the link.
    @raise Invalid_argument on negative [copies]. *)

val clear_duplication : 'msg t -> src:Proc_id.t -> dst:Proc_id.t -> unit

val run : ?until:int -> ?max_events:int -> 'msg t -> int
(** Process events until the queue is empty, virtual time would exceed
    [until], or [max_events] events have fired.  Returns the number of
    events processed. *)

val step : 'msg t -> bool
(** Process exactly one event; [false] if the queue was empty. *)

val pending_events : 'msg t -> int

val delivered_count : 'msg t -> int

val dropped_count : 'msg t -> int
