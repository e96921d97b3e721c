(** Socket servers hosting base objects.

    A server group owns one listening socket (Unix-domain or TCP) per
    base object and hosts each object in a {!Core.Object_host}, the
    simulator's object host, given {!Codec.answers} so that a
    retransmit gets its lost reply again.  Every object belongs to one
    worker domain, whose [select]-driven event loop accepts on the
    object's listening socket, reads framed messages, feeds them through
    the object's host and writes the reply frames back in batches.
    {!start} is a group of one.

    Sessions open with a {!Codec.Hello} naming the protocol and the
    object index the client dialed; mismatches are answered with a
    terminal {!Codec.Err} frame, so a client pointed at the wrong server
    fails loudly instead of feeding garbage into a state machine.

    The worker loop is also where an object's faults happen: {!set_rules}
    installs {!Chaos} rules that it applies to every frame it decodes
    and every reply it queues.

    [stop] is the graceful path (stop accepting, let queued replies
    flush, then close); [crash] tears the sockets down hard — the
    loopback chaos tests use it as the process-kill stand-in.
    [restart] rebinds the same endpoint with the object state captured
    at shutdown ([wipe:false], a crash-recovery with persistent state)
    or freshly initialized ([wipe:true], a wiped replica). *)

type t

type stats = {
  connections : int;  (** sessions accepted over the server's lifetime *)
  messages : int;  (** protocol messages handled, retransmits included *)
  dropped : int;  (** frames a rule dropped, both directions *)
  duplicated : int;  (** extra copies a rule made, both directions *)
  corrupted : int;  (** replies a rule corrupted *)
  delayed : int;  (** replies a rule delayed *)
}

val start :
  ?metrics:Obs.Metrics.t ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  index:int ->
  Endpoint.t ->
  t
(** Bind, listen and serve object [index] (1-based).  [Tcp] port 0 binds
    an ephemeral port; {!endpoint} reports the actual one.  With
    [metrics], the registry accumulates [net.server.*] counters and
    per-class [wire.*] counters compatible with the simulator's.  This
    is a one-object {!start_group} with one worker domain.
    @raise Unix.Unix_error if the endpoint cannot be bound. *)

val start_group :
  ?metrics:(int -> Obs.Metrics.t) ->
  ?indices:int array ->
  ?domains:int ->
  ?queue_hi:int ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  Endpoint.t array ->
  t array
(** Host all the base objects of a cluster sharded across [domains]
    poll-based event-loop worker domains (default 1, at most one per
    object): element [i] serves object [indices.(i)] (default [i+1]) on
    [endpoints.(i)], owned by worker [i mod domains].  The owning worker
    selects on the object's listening socket next to its connections,
    so accept, read, decode, automaton step, encode and flush are all
    domain-local and no automaton is ever stepped by two domains
    ({!partition_violations} counts runtime assertions of that
    invariant).  Clients cannot tell how the objects are spread over
    domains: every object validates [Hello]s and answers frames
    alike.

    Write queues are bounded: when a connection's pending bytes exceed
    [queue_hi] (default 256 KiB, floor 4 KiB) the server stops reading
    that socket until the queue drains below a quarter of the
    watermark — the peer's window blocks, no frame is ever dropped —
    surfaced per slot as [wire.queue_depth] / [wire.backpressure_stalls]
    histograms (plus server-side [wire.batch_size]).

    Each returned handle stops/crashes/restarts its object
    independently.  A graceful {!stop} drains queued replies for up to
    5 seconds before closing, so batched frames are never truncated
    mid-frame; {!crash} closes immediately.  Domains exit once every
    slot they serve has stopped and are respawned by the first
    {!restart}.  [metrics] maps a 0-based slot to its registry, asked
    once per slot at start; a slot's registry is only ever touched by
    its owning worker domain.  Without [metrics] nothing is metered.
    @raise Unix.Unix_error if an endpoint cannot be bound (all bound
    listeners are closed and their socket files removed). *)

val endpoint : t -> Endpoint.t
(** The bound address (ephemeral TCP ports resolved). *)

val index : t -> int

val alive : t -> bool

val stats : t -> stats
(** The object's counters since the group started, across restarts. *)

val set_rules : t -> now_us:(unit -> int) -> Chaos.rule list -> unit
(** Atomically replace the fault rules of the handle's object; windows
    are read against [now_us].  A request rule applies to each decoded
    frame before anything else happens to it, [Hello] included; a reply
    rule to each frame the server queues, and a delayed reply leaves its
    delay after it was queued.  Rules belong to the object's slot in the
    group, so they survive {!crash} and {!restart}.  With no rules, each
    frame costs one atomic read.
    @raise Invalid_argument on a request rule that delays or corrupts:
    requests can only be dropped or duplicated. *)

val stop : t -> unit
(** Graceful shutdown; idempotent. *)

val crash : t -> unit
(** Abrupt shutdown: connections are reset, nothing drains; idempotent. *)

val restart : ?wipe:bool -> t -> t
(** Restart a stopped/crashed server on the same endpoint.  [wipe]
    (default [false]) discards the persisted object state.
    @raise Invalid_argument if the server is still alive. *)

val partition_violations : t -> int
(** Number of times a base object of this handle's group was stepped
    outside its owning domain (shared across the whole {!start_group}
    group; 0 unless the sharded dispatch invariant is broken — any
    nonzero value is a bug). *)
