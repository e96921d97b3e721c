(** Reader/writer client runtime: the protocol's round structure over
    real sockets.

    One engine, {!Keyed}, runs every live client.  It drives the
    {e unchanged} reader/writer state machines from
    {!Core.Protocol_intf.S} for a keyspace of registers: each round's
    message goes to [S−t] of the key's base objects (widening to the
    rest only when the round needs them, DESIGN §17), replies are fed
    back as they arrive (the state machines themselves decide when [S−t]
    replies — or the protocol's own quorum predicate — are enough), and
    any next-round broadcast the machine emits is followed.  The single
    register is key 0 of {!Shard.Map.single}.  {!Cluster} hands out
    engines on a loopback cluster and records what they run.

    The round logic is {!Core.Driver}'s, the same driver the simulator
    steps ({!Core.Scenario}); [Keyed] is its socket host: dial, [Hello],
    cache resync, decode, flush and one [select] loop ({!Keyed.poll}).
    The wire uses what the simulator never needs:

    - {b per-round deadlines} — if a round does not complete within
      [deadline], the round's message is retransmitted (the state
      machines already ignore duplicate replies) with exponential
      backoff, up to [retries] attempts.  Deadlines and backoff run on
      the engine's microsecond clock ([now_us]) and reconnect pacing on
      the monotonic clock, so a wall-clock step moves none of them;
    - {b endpoint failure} — an endpoint that refuses connections,
      resets, or times out is marked down and retried later; operations
      proceed on the survivors, so a crashed or Byzantine-silent
      minority never blocks progress (wait-freedom, paper §2.2);
    - {b observability} — every operation opens an {!Obs.Span}
      (microsecond timestamps), handed to the caller in its [Respond]
      event, and, with [metrics], populates the same [op.*] / [wire.*]
      metric families as the simulator, plus [op.fast_reads] (reported
      rounds <= 1, the §5.1 fast path) or [op.fallback_rounds], and its
      flushes as [net.client.{batch_size,flush_us,bytes_per_frame}]
      (a server's are [wire.*]);
    - {b cache resync} — a re-established connection may front a
      restarted, possibly wiped server, so every reader machine resyncs
      ({!Core.Driver.reconnected}, counted as [op.cache_resyncs]):
      regular-gc clears its §5.1 timestamp cache so the next read asks
      for the full history, not a suffix the wiped object lost. *)

type opts = Core.Driver.timing = {
  deadline : float;  (** seconds a round may wait before a retransmit *)
  retries : int;  (** retransmit rounds before the operation fails *)
  backoff : float;
      (** base retry backoff, doubled per attempt and clamped at 1s so a
          long outage cannot push a retransmit hours past the deadline *)
}

val default_opts : opts
(** 1s deadline, 5 retries, 50ms backoff. *)

type outcome = Core.Driver.outcome = {
  value : Core.Value.t option;  (** [Some] for reads *)
  rounds : int;  (** rounds the protocol reported at completion *)
  retransmits : int;  (** deadline-triggered retransmissions *)
  latency_us : int;
}

(** {2 The client engine}

    Drives reader AND writer automata for a whole keyspace over one
    connection per fleet server.  Placement comes from {!Shard.Map}: a
    key's rounds go as [Msg_key] frames to members of its shard only,
    and replies demultiplex by the echoed (key, sender) pair.  Outbound
    frames are coalesced per connection flush ({!Codec.Out}), which is
    invisible to peers because frames are length-prefixed and
    self-delimiting.  Rounds, lanes, queues, coalescing and parking are
    {!Core.Driver}'s, run at fan-out [S−t]; its operations, events and
    {!Keyed.pick} are {!Core.Driver_ops}, re-exported here; an engine
    numbers its spans ([id]) from 0 in start order.  Per-key
    automata are lazily materialized, so keys are as independent over
    the wire as separate registers, which makes per-shard correctness
    the paper's single-register argument verbatim.  A read and a write
    on the {e same} key may overlap: they are different automata —
    exactly the paper's concurrent reader/writer.

    The registers are SWMR; partitioning write ownership across
    processes (at most one writer per key, ever) is the caller's job —
    [cluster --clients] and [Exp_common.keyspace_cell] split it by
    {!Shard.Map.mix}. *)

module Keyed : sig
  include module type of struct
    include Core.Driver_ops
  end

  type t

  val connect :
    ?session:string ->
    ?metrics:Obs.Metrics.t ->
    ?opts:opts ->
    ?now_us:(unit -> int) ->
    ?max_inflight:int ->
    ?reader:int ->
    ?readers:int ->
    ?coalesce:int ->
    protocol:Protocols.t ->
    map:Shard.Map.t ->
    Endpoint.t array ->
    t
  (** [connect ~protocol ~map endpoints] prepares a keyed client over a
      fleet: endpoint [i] is fleet slot [i] and hosts base object [i+1]
      for every shard it serves (the automata only ever count distinct
      object ids against quorum thresholds, so a shard's member ids need
      not be contiguous).  Every key gets [readers] (default 1) reader
      lanes with ids [reader .. reader+readers-1] ([reader] defaults to
      1); two clients reading the same keys must use disjoint ids, since
      base objects keep per-reader round state.  [session] (default
      ["r<reader>"]) is the process name each connection's [Hello]
      carries: a server's {!Chaos} rules attribute the [Hello] and its
      [Hello_ack] to it; the writer's engine passes ["w"].
      [max_inflight] (default 16) caps concurrently progressing
      operations across all keys.  [now_us] (default: microseconds since
      [connect] on the monotonic clock) stamps every event and span and
      times every round's deadline and hedge, so it must be monotonic.

      [coalesce] (default 1 = off, clamped to at least 1) caps how many
      same-key reads may share one quorum round: a read admitted while
      a read round of its key is still being assembled (sent, not yet
      flushed) joins it and adopts its result (DESIGN §16).  Joined
      reads do not count against [max_inflight]; each completes as a
      logical op of its own ([op.coalesced_reads],
      [op.coalesce_width]).
      @raise Invalid_argument if [endpoints] does not match the map's
      fleet, [reader < 1] or [readers < 1]. *)

  val submit : t -> kop -> int
  (** Append an op and return its number; it starts at a later {!poll},
      under the window and behind the ops queued on its key and role. *)

  val poll : (t * (event -> unit)) list -> timeout:float -> unit
  (** One turn of the event loop over distinct engines, each with the
      handler of its events: each connects, starts what it can and
      flushes; then, unless none has an op outstanding, one [select]
      over all their connections waits at most [timeout] seconds (less
      if an engine's timer or reconnect is due sooner), and replies and
      timers run. *)

  val idle : t -> bool
  (** Every op submitted so far has responded. *)

  val op : t -> int -> kop
  (** Op [i]: the lookup {!Core.Record.event} takes. *)

  val run_ops :
    ?on_event:(event -> unit) ->
    t ->
    kop array ->
    (outcome, string) result array
  (** [run_ops t ops] numbers [ops] from 0, then {!poll}s an idle [t]
      until it is idle again; result [i] is operation [i]'s outcome.
      [on_event] observes invocations and responses in real time (for
      per-key history recording).  A timed-out operation parks its
      machine mid-round — the automata have no abort — and the next
      operation on that (key, role) resumes it; a resumed {e write}
      completes the parked round, so the resuming write's own value is
      not what gets written. *)

  val close : t -> unit
end
