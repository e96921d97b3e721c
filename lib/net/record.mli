(** Live history recording: the one place where {!Client.Keyed} events
    become per-key register histories for {!Histories.Checks}.

    A recording owns a monotonic microsecond clock and one log per
    client.  A client stamps its events with {!now_us} and appends them
    to its own {!log}, so recording never waits on another client.
    {!histories} merges every log into one history per key, in stamp
    order:
    - each log keeps its own order;
    - when stamps from different logs tie, an invocation goes before a
      response, so a tie never makes one operation precede another.

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

val now_us : t -> unit -> int
(** Microseconds since {!create} on the monotonic clock.  Every client
    logging into [t] must stamp its events with this clock
    ([Client.Keyed.connect ~now_us:(Record.now_us t)]), since
    {!histories} orders events from different logs by their stamps. *)

type log

val log : t -> log
(** A fresh, empty log in [t].  Safe to call from any thread or domain;
    the log itself must be appended to by one client only. *)

val event : log -> Client.Keyed.kop array -> Client.Keyed.event -> unit
(** [event log ops ev] appends [ev], an event of running [ops]: pass
    [~on_event:(Record.event log ops)] to {!Client.Keyed.run_ops}. *)

val spans : t -> Obs.Span.t list
(** The span of every operation that responded with one: log by log in
    creation order, each log's in start ([id]) order.  Call it only
    while no client is appending. *)

val histories : t -> (int * string Histories.Op.t list) list
(** One history per key that saw an event, sorted by key id; each lists
    its operations in invocation order.  Call it only while no client
    is appending. *)
