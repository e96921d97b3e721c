(** History recording: the one place where round-driver ({!Driver})
    events become per-key register histories for {!Histories.Checks},
    for both of the driver's hosts.

    A recording holds one log per client.  A client appends its events
    to its own {!log}, so recording never waits on another client.
    {!histories} merges every log into one history per key, ordered by
    the events' [at_us] stamps:
    - each log keeps its own order;
    - when stamps from different logs tie, an invocation goes before a
      response, so a tie never makes one operation precede another.

    A recording keeps no clock: every log in one recording must be
    stamped on one clock ([Net.Cluster.now_us] for the wire engines).
    The simulator appends all its processes' events to one log, so its
    history replays that log in order and no tie across logs arises.

    The translation rules live here and nowhere else:
    - a completed operation carries the rounds of the response that
      completed it, which the judge holds to the protocol's bounds;
    - an operation that fails ([Respond] with [Error]) stays open; the
      next operation on the same (key, reader) resumes its parked
      automaton, and its response completes the original invocation;
    - an operation that is never resumed stays incomplete, which is what
      {!Histories.Checks.check_wait_freedom} flags;
    - a joined (coalesced) read overlaps the read it joined, so it is
      recorded under a negative reader id, which no lane uses. *)

type t

val create : unit -> t

type log

val log : t -> log
(** A fresh, empty log in [t].  Safe to call from any thread or domain;
    the log itself must be appended to by one client only. *)

val event : log -> (int -> Driver_ops.kop) -> Driver_ops.event -> unit
(** [event log op ev] appends [ev]; [op] maps the event's operation
    number to its operation: [~on_event:(Record.event log (Array.get ops))]
    for a run of [ops], [Driver.op d] for the operations submitted to
    driver [d]. *)

val spans : t -> Obs.Span.t list
(** The span of every operation that responded with one: log by log in
    creation order, each log's in start ([id]) order.  Call it only
    while no client is appending. *)

val histories : t -> (int * string Histories.Op.t list) list
(** One history per key that saw an event, sorted by key id; each lists
    its operations in invocation order.  Call it only while no client
    is appending. *)
