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

    The transport adds what the simulator never needed:

    - {b per-round deadlines} — if a round does not complete within
      [deadline], the round's message is retransmitted (the state
      machines already ignore duplicate replies) with exponential
      backoff, up to [retries] attempts.  Deadlines, backoff and
      reconnect pacing run on the monotonic clock, so a wall-clock step
      moves none of them;
    - {b endpoint failure} — an endpoint that refuses connections,
      resets, or times out is marked down and retried later; operations
      proceed on the survivors, so a crashed or Byzantine-silent
      minority never blocks progress (wait-freedom, paper §2.2);
    - {b observability} — every operation opens an {!Obs.Span}
      (microsecond timestamps, round transitions, contacted objects),
      handed to the caller in its [Respond] event, and, with [metrics],
      populates the same [op.*] / [wire.*] metric
      families as the simulator, so live runs export through the
      existing JSONL exporters unchanged.  Completed reads additionally
      bump [op.fast_reads] (reported rounds <= 1: the §5.1 one-round
      fast path) or [op.fallback_rounds] (>= 2 rounds), so traces
      distinguish the paths without parsing spans;
    - {b cache resync} — re-establishing a connection that was up before
      means the server behind it may have restarted, possibly wiped.
      The client then passes every reader machine through
      {!Core.Protocol_intf.S.reader_on_reconnect} (counted as
      [op.cache_resyncs]): regular-gc clears its §5.1 timestamp cache so
      the next read requests the full history instead of trusting a
      suffix the wiped object can no longer serve; stateless protocols
      are untouched. *)

type opts = {
  deadline : float;  (** seconds a round may wait before a retransmit *)
  retries : int;  (** retransmit rounds before the operation fails *)
  backoff : float;
      (** base retry backoff, doubled per attempt and clamped at 1s so a
          long outage cannot push a retransmit hours past the deadline *)
}

val default_opts : opts
(** 1s deadline, 5 retries, 50ms backoff. *)

type outcome = {
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
    self-delimiting.

    Rounds are quorum-sized (DESIGN §17).  A fresh round's message goes
    to the [S−t] connected members chosen by {!Keyed.pick}, since the
    automata wait for [S−t] replies anyway.  The round then sends the
    same message to the members it skipped when one of three things
    happens, each counted under its own name:
    - [op.expand.lost]: a contacted member that had not answered drops
      its connection;
    - [op.expand.undecided]: every contacted member has answered the
      message and the automaton has neither decided nor started a new
      round;
    - [op.expand.hedge]: all contacted members but one have answered,
      and the last one has taken as long again as the round had taken
      until then.
    Deadline retransmits and resumed rounds still go to every member.
    Per-key automata are lazily materialized, so each key keeps its own
    fast-read timestamp cache and GC floor — keys are as independent
    over the wire as separate registers, which is what makes per-shard
    correctness the paper's single-register argument verbatim.

    Each key has one writer and [readers] reader lanes: lane [i] is a
    reader automaton with reader id [reader + i].  An automaton runs one
    operation at a time (its round timestamps are per-op), so per key at
    most one write and [readers] reads are in flight; excess operations
    queue FIFO per key, so each key's writes stay program-ordered and
    its reads start in program order, while distinct keys overlap up to
    [max_inflight].  A read and a write on the {e same} key may overlap:
    they are different automata — exactly the paper's concurrent
    reader/writer.

    The registers are SWMR; partitioning write ownership across
    processes (at most one writer per key, ever) is the caller's job —
    the load driver does it with {!Shard.Map.mix}. *)

module Keyed : sig
  type kop = Read of { key : int } | Write of { key : int; value : Core.Value.t }

  val op_key : kop -> int

  val op_is_write : kop -> bool

  val pick :
    members:int array ->
    connected:(int -> bool) ->
    unanswered:(int -> int) ->
    q:int ->
    bool array
  (** [pick ~members ~connected ~unanswered ~q] chooses who gets a fresh
      round: element [rank] of the result is [true] iff fleet slot
      [members.(rank)] is chosen.  It chooses the [q] connected members
      with the fewest [unanswered] frames (frames sent to the slot since
      it last replied), breaking ties toward the lower slot, or every
      connected member if fewer than [q] are connected. *)

  type event =
    | Invoke of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
      }
        (** [reader] is the id of the lane that runs the read (0 for a
            write); [joined] means the read coalesced onto the round
            that lane was assembling instead of running its own; writes
            never coalesce. *)
    | Respond of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
        outcome : (outcome, string) result;
        span : Obs.Span.t option;
      }
        (** [span] is the span the op started, open if the op failed.
            The engine keeps no span once it is handed out here, so a
            caller that wants spans collects them from these events.  An
            op that resumed a parked round, or adopted a parked round's
            result, carries [None]: that round's span went out with the
            [Respond] of the op that started it, and the engine may still
            complete it afterwards.  Every span an engine starts is
            handed out exactly once; spans are numbered ([id]) in start
            order from 0 per engine. *)

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
      operations across all keys.

      [coalesce] (default 1 = off, clamped to at least 1) caps how many
      same-key reads may share one quorum round.  A read admitted while
      a fresh read round of its key is still being assembled (broadcast
      buffered, not yet flushed) joins that round and adopts its result;
      reads already queued behind the key piggyback onto each fresh
      round the same way.  Join-before-broadcast preserves regularity —
      all the round's evidence postdates every member's invocation
      (DESIGN §16) — and per-key program order is kept because a read
      only joins when nothing is queued ahead of it.  Joined reads do
      not count against [max_inflight]; each completes as a logical op
      of its own (span, per-op and per-shard metrics,
      [op.coalesced_reads] counter, [op.coalesce_width] histogram).
      Rounds resumed from a timed-out park never accept joiners.
      @raise Invalid_argument if [endpoints] does not match the map's
      fleet, [reader < 1] or [readers < 1]. *)

  val run_ops :
    ?on_event:(event -> unit) ->
    t ->
    kop array ->
    (outcome, string) result array
  (** [run_ops t ops] drives every operation to completion (or timeout);
      result [i] is operation [i]'s outcome.  [on_event] observes
      invocations and responses in real time (for per-key history
      recording).  A timed-out operation parks its machine mid-round —
      the automata have no abort — and the next operation on that (key,
      role) resumes it; a resumed {e write} completes the parked round,
      so the resuming write's own value is not what gets written. *)

  val close : t -> unit
end
