(** Loopback cluster harness: S servers plus the client engines that
    drive them, in one process.

    This is the live counterpart of {!Core.Scenario}: it hosts the S
    base objects in one {!Server.start_group} (Unix-domain sockets in a
    private temp directory by default, TCP on demand) and hands out
    {!Client.Keyed} engines on their endpoints.  {!run} is the one way
    to run operations: it drives an engine and records every event the
    engine emits through {!Record}, so the paper's
    safety/regularity/wait-freedom checkers run on live histories
    exactly as they do on simulated ones.  The single register is key 0
    of {!Shard.Map.single}, the default map; every key-0 operation of
    every engine lands in the one key-0 history.

    The shapes a harness needs are engine parameters: one paper process
    is a one-lane engine ({!processes}), pipelined reads are one engine
    with [inflight] lanes, and a keyspace run passes [~map].  A caller
    keeps its engine across calls, so an operation that timed out parks
    its automaton and the next {!run} on that engine resumes it.

    Chaos hooks mirror the fault campaign's crash-recovery actions:
    {!crash} kills a server's sockets mid-flight (the stand-in for a
    killed process), {!restart} brings the object back on the same
    endpoint with persisted or wiped state.  Engines reconnect on their
    own; as long as at most [t] objects are down, operations keep
    completing — the acceptance test drives 1000 READs across a
    crash/restart and requires zero failures.

    Thread-safety: distinct engines may be driven from distinct threads
    concurrently; each appends to a {!Record.log} of its own.  One
    engine must not be driven from two threads, engines are taken before
    the threads start, and {!history} / {!keyed_histories} must not run
    while operations do. *)

type t

val start :
  ?metrics:bool ->
  ?opts:Client.opts ->
  ?transport:[ `Unix | `Tcp ] ->
  ?domains:int ->
  ?interpose:bool ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  unit ->
  t
(** Spin up [cfg.s] servers.  [transport] defaults to [`Unix].  The
    objects are sharded across [domains] worker domains (default 1).
    With [interpose:true], a {!Chaos} proxy fronts every server and
    engines dial the proxies — {!chaos} exposes them for rule injection;
    with no rules set the interposers are transparent.  [opts] is every
    engine's retry policy.  With [metrics:true] every server and engine
    keeps a private registry; {!metrics} merges them. *)

type engine

val engine :
  ?lanes:int ->
  ?inflight:int ->
  ?coalesce:int ->
  ?map:Shard.Map.t ->
  t ->
  engine
(** A fresh {!Client.Keyed} engine on the cluster's endpoints and clock,
    recording into a log of its own.  Its [lanes] (default 1) reader
    lanes take the next unused reader ids — the cluster hands out ids
    1, 2, 3, ... in the order engines are taken, because base objects
    keep per-reader round state and two engines must never share an id.
    [inflight] (default [lanes]) caps its concurrently progressing
    operations; [coalesce] (default 1 = off) is
    {!Client.Keyed.connect}'s read-coalescing cap (see {!Record} for how
    joined reads are recorded); [map] defaults to the single register.
    @raise Invalid_argument if [lanes < 1] or the map's fleet is not the
    cluster's server count. *)

val processes : t -> readers:int -> engine * engine array
(** The paper's processes, one engine each: the writer's, and reader
    [j]'s at index [j-1].  Reader [j] has reader id [j], and its frames
    and connection [Hello]s name it ["r<j>"]; the writer's name it
    ["w"].  A {!Chaos} rule aimed at one process therefore matches that
    process's frames only.  Processes that race each other are driven
    from one thread each.
    @raise Invalid_argument if the cluster has already handed out an
    engine (reader ids 1..[readers] must be free). *)

val run :
  ?on_event:(Client.Keyed.event -> unit) ->
  engine ->
  Client.Keyed.kop array ->
  (Client.outcome, string) result array
(** {!Client.Keyed.run_ops} on the engine, every event recorded into its
    key's history at its real invoke/respond instant.  [on_event] sees
    every event after it is recorded, from the engine's event loop — a
    fault injected there lands while operations are in flight. *)

val keyed_histories : t -> (int * string Histories.Op.t list) list
(** {!Record.histories} of every engine so far: one history per key
    that saw an operation, sorted by key id.  Feed each key's list to
    {!Histories.Checks} (or {!Protocols.check}) independently. *)

val history : t -> string Histories.Op.t list
(** Key 0's history from {!keyed_histories} (empty if none). *)

val crash : t -> int -> unit
(** Hard-kill server for object [i] (1-based); idempotent while down. *)

val restart : ?wipe:bool -> t -> int -> (unit, [ `Still_alive of int ]) result
(** Bring object [i] back on the same endpoint ([wipe] discards its
    state).  Restarting a server that is still up is a structured
    [Error] — fault drivers mid-campaign handle it, they do not
    unwind. *)

val restart_exn : ?wipe:bool -> t -> int -> unit
(** {!restart}, raising [Invalid_argument] on [`Still_alive] — for
    call sites that treat it as a bug. *)

val alive : t -> int list
(** Object indices whose server is up. *)

val partition_violations : t -> int
(** {!Server.partition_violations} over the cluster's servers: nonzero
    iff some base object was stepped outside its owning domain. *)

val chaos : t -> Chaos.t array
(** The per-object interposers ([chaos t].(i-1) fronts object [i]);
    [[||]] unless started with [interpose:true]. *)

val endpoints : t -> Endpoint.t array
(** What engines dial — the interposers when interposed, otherwise the
    servers — for clients in other processes. *)

val now_us : t -> int
(** The cluster's shared microsecond clock (the one histories, spans
    and {!Chaos} rule windows are stamped against). *)

val spans : t -> Obs.Span.t list
(** Every engine's spans, engines in the order they were taken; all
    share one microsecond clock. *)

val metrics : t -> Obs.Metrics.t option
(** Merged snapshot of every component registry (servers then engines);
    [None] unless started with [metrics:true]. *)

val stop : t -> unit
(** Close every engine, stop the servers and remove the socket
    directory. *)
