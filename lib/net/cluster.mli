(** Loopback cluster harness: S servers plus the client engines that
    drive them, in one process.

    This is the live counterpart of {!Core.Scenario}: it hosts the S
    base objects in one {!Server.start_group} (Unix-domain sockets in a
    private temp directory by default, TCP on demand) and hands out
    {!Client.Keyed} engines on their endpoints.  {!run} and {!drive}
    drive engines and record every event they emit through
    {!Core.Record}, so the paper's safety/regularity/wait-freedom
    checkers run on live histories exactly as they do on simulated
    ones.  A cluster carries its
    keyspace: the map it starts with fixes the fleet it hosts and where
    every engine places keys, so every operation on a key, from any
    engine, lands in that key's one history.  The default map is
    {!Shard.Map.single}, the single register as key 0.

    The shapes a harness needs are parameters: one paper process is a
    one-lane engine ({!processes}), pipelined reads are one engine with
    [inflight] lanes, and a keyspace run starts its cluster with
    [~map].  A caller keeps its engine across calls, so an operation
    that timed out parks its automaton and the next op on that engine
    resumes it.

    Chaos hooks mirror the fault campaign's actions: {!crash} kills a
    server's sockets mid-flight (the stand-in for a killed process),
    {!restart} brings the object back on the same endpoint with
    persisted or wiped state, and {!set_rules} makes the object's own
    worker loop drop, delay, duplicate or corrupt its frames.  Engines
    reconnect on their own; as long as at most [t] objects are down,
    operations keep completing — the acceptance test drives 1000 READs
    across a crash/restart and requires zero failures.

    Thread-safety: distinct engines may be driven from distinct threads
    concurrently; each appends to a {!Core.Record.log} of its own.  One
    engine must not be driven from two threads, engines are taken before
    the threads start, and {!history} / {!keyed_histories} must not run
    while operations do. *)

type t

val start :
  ?opts:Client.opts ->
  ?transport:[ `Unix | `Tcp ] ->
  ?domains:int ->
  ?map:Shard.Map.t ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  unit ->
  t
(** Spin up one server per slot of [map]'s fleet ([map] defaults to
    [Shard.Map.single cfg]: [cfg.s] servers).  [transport] defaults to
    [`Unix].  The objects are sharded across [domains] worker domains
    (default 1).  [opts] is every engine's retry policy.  Every server
    and engine meters into a registry of its own through
    {!Obs.Metrics} handles (DESIGN §8); {!metrics} merges them.
    @raise Invalid_argument if [map] is not a map over [cfg]. *)

type engine

val engine :
  ?lanes:int ->
  ?inflight:int ->
  ?coalesce:int ->
  t ->
  engine
(** A fresh {!Client.Keyed} engine on the cluster's endpoints, map and
    clock, recording into a log of its own.  Its [lanes] (default 1)
    reader lanes take the next unused reader ids — the cluster hands
    out ids 1, 2, 3, ... in the order engines are taken, because base
    objects keep per-reader round state and two engines must never
    share an id.
    [inflight] (default [lanes]) caps its concurrently progressing
    operations; [coalesce] (default 1 = off) is
    {!Client.Keyed.connect}'s read-coalescing cap (see {!Core.Record}
    for how joined reads are recorded).
    @raise Invalid_argument if [lanes < 1]. *)

val processes : t -> readers:int -> engine * engine array
(** The paper's processes, one engine each: the writer's, and reader
    [j]'s at index [j-1].  Reader [j] has reader id [j], and its frames
    and connection [Hello]s name it ["r<j>"]; the writer's name it
    ["w"].  A {!Chaos} rule aimed at one process therefore matches that
    process's frames only.  Processes that race each other are driven
    from one loop: {!submit} each one's ops and {!drive} them together.
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

val submit : engine -> Client.Keyed.kop -> int
(** {!Client.Keyed.submit}: the op starts once {!drive} polls its
    engine. *)

val drive :
  t ->
  (engine * (Client.Keyed.event -> unit)) list ->
  (int * (unit -> unit)) list ->
  unit
(** [drive t engines timeline] runs each [(at, action)] at {!now_us}
    [at], in time then list order, and {!Client.Keyed.poll}s the
    engines in between, every event recorded as {!run} records it, until
    every action has run and every op has responded. *)

val keyed_histories : t -> (int * string Histories.Op.t list) list
(** {!Core.Record.histories} of every engine so far: one history per key
    that saw an operation, sorted by key id: what
    {!Fault.Campaign.judge} takes, or feed each key's list to
    {!Histories.Checks} independently. *)

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

val set_rules : t -> int -> Chaos.rule list -> unit
(** {!Server.set_rules} on object [i] (1-based), windows read against
    {!now_us}.  The rules stay with the object across {!crash} and
    {!restart}. *)

val stats : t -> int -> Server.stats
(** {!Server.stats} of object [i] (1-based). *)

val endpoints : t -> Endpoint.t array
(** The servers' endpoints, for clients in other processes. *)

val now_us : t -> int
(** The cluster's shared microsecond clock, monotonic since {!start}:
    the one histories, spans, {!drive} timelines and {!Chaos} rule
    windows are stamped against. *)

val spans : t -> Obs.Span.t list
(** Every span the engines' ops started, each once: engines in the order
    they were taken, each engine's spans in start ([id]) order
    ({!Core.Record.spans} of their logs); all share one microsecond
    clock, {!now_us}. *)

val metrics : t -> Obs.Metrics.t
(** Merged snapshot of every component registry (servers then engines):
    the [wire.*], [op.*], [shard.*] and [net.*] families the run
    touched. *)

val stop : t -> unit
(** Close every engine, stop the servers and remove the socket
    directory.  The record stays: {!keyed_histories}, {!spans} and
    {!metrics} read every engine as they did before [stop]. *)
