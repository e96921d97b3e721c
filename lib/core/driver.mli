(** The round driver: one client's per-key round logic, shared by the
    simulator and the wire engine.

    A driver steps a protocol's reader and writer automata
    ({!Protocol_intf.S}) for a keyspace of registers placed by a
    {!Shard.Map}.  It does no I/O and reads no clock: a {e host} sends
    its messages and feeds it operations, replies, lost connections and
    ticks, each with the time as an int on the host's clock.  Two hosts
    exist: [Net.Client.Keyed] (fan-out S−t, with deadlines) and
    {!Scenario}, one driver per paper process (fan-out S, no deadline,
    so each round is a broadcast to objects 1..S).

    Per key there is one writer and [readers] reader lanes (reader ids
    [reader + i]), each running one operation at a time; excess
    operations queue FIFO per key.  Slot [i] hosts object [i + 1].  A
    fresh round goes to the [fanout] members {!pick} chooses and widens
    on a loss, an undecided round or a hedge (DESIGN §17).  A round past
    its deadline goes again to every member; after [retries] the op
    fails and its round parks for the next op on the role.  With
    [coalesce > 1] a read joins a same-key read round not yet
    {!flushed} (DESIGN §16). *)

include module type of struct
  include Driver_ops
end

type timing = {
  deadline : float;  (** seconds a round may wait before a retransmit *)
  retries : int;  (** retransmit rounds before the operation fails *)
  backoff : float;
      (** base retry backoff, doubled per attempt and clamped at 1s so a
          long outage cannot push a retransmit hours past the deadline *)
}

(** What a host gives its driver: [send] a message to a fleet slot (the
    host may drop it if the slot is down), who is [connected], frames
    [unanswered] per slot, whether a reply [answers] a request, and
    spans: the host numbers them, and says where its trace is when one
    closes. *)
type 'm host = {
  send : slot:int -> key:int -> sender:string -> 'm -> unit;
  connected : int -> bool;
  unanswered : int -> int;
  answers : request:'m -> 'm -> bool;
  start_span : Obs.Span.kind -> proc:string -> now:int -> Obs.Span.t;
  trace_pos : unit -> int;
}

type ('m, 'r, 'w) protocol =
  (module Protocol_intf.S
     with type msg = 'm
      and type reader = 'r
      and type writer = 'w)

val op_meters :
  Obs.Metrics.t -> string -> latency:string * float array -> Obs.Span.t -> unit
(** [op_meters reg kind ~latency:(suffix, bounds)] counts a span into
    the [op.<kind>.*] family of ["read"] or ["write"] ops (an open one
    as [.open]); its latency histogram is [op.<kind><suffix>]. *)

type ('m, 'r, 'w) t

val writer : int
(** The writer's lane; reader lanes are [0 .. readers-1]. *)

val create :
  ?metrics:Obs.Metrics.t ->
  ?timing:timing ->
  ?window:int ->
  ?coalesce:int ->
  ('m, 'r, 'w) protocol ->
  host:'m host ->
  map:Shard.Map.t ->
  fanout:int ->
  reader:int ->
  readers:int ->
  ('m, 'r, 'w) t
(** No deadline without [timing]; [window] (default unbounded) caps the
    ops in flight, joined reads aside; [coalesce] (default 1 = off) caps
    a read round's width.  With [metrics] the driver counts the [op.*]
    families and [wire.<class>.delivered]; without, nothing. *)

val load : ('m, 'r, 'w) t -> on_event:(event -> unit) -> kop array -> unit
(** Replace the operations with [ops], numbered from 0, and send events
    to [on_event].  Parked rounds carry over. *)

val submit : ('m, 'r, 'w) t -> kop -> unit
(** Append one operation. *)

val submitted : ('m, 'r, 'w) t -> int
(** The operations so far: they are numbered [0 .. submitted d - 1]. *)

val op : ('m, 'r, 'w) t -> int -> kop

val finished : ('m, 'r, 'w) t -> bool
(** Every operation so far has responded. *)

val pump : ('m, 'r, 'w) t -> now:int -> unit
(** Start what can start: the queued successors of completed ops, new
    ops up to the window, and reads that can join a round past it. *)

val flushed : ('m, 'r, 'w) t -> unit
(** Everything sent so far has left the process: no round being
    assembled takes another joiner. *)

val deliver :
  ('m, 'r, 'w) t -> now:int -> slot:int -> key:int -> lane:int -> 'm -> unit
(** A reply from [slot] to [lane] of [key]; dropped if the role is
    idle. *)

val lost : ('m, 'r, 'w) t -> slot:int -> unit
(** [slot]'s connection dropped. *)

val reconnected : ('m, 'r, 'w) t -> unit
(** A connection came back; its server may have restarted wiped, so
    every reader resyncs ({!Protocol_intf.S.reader_on_reconnect}). *)

val tick : ('m, 'r, 'w) t -> now:int -> unit
(** Fire due hedges, retransmits and timeouts. *)

val next_wakeup : ('m, 'r, 'w) t -> int
(** The earliest timer of a round in flight; [max_int] if none, which
    with deadlines means no round is in flight. *)
