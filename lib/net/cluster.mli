(** Loopback cluster harness: S servers plus writer/reader clients in
    one process.

    This is the live counterpart of {!Core.Scenario}: it hosts the S
    base objects in one {!Server.start_group} (Unix-domain sockets in a
    private temp directory by default, TCP on demand), connects the
    single writer and [readers] reader {!Client}s, and records every
    operation of every client through {!Record}, so the paper's
    safety/regularity/wait-freedom checkers run on live histories
    exactly as they do on simulated ones.  Every client is the
    {!Client.Keyed} engine; the single register is its key 0, and every
    key-0 operation — serial, pipelined or keyed — lands in the one key-0
    history.

    Chaos hooks mirror the fault campaign's crash-recovery actions:
    {!crash} kills a server's sockets mid-flight (the stand-in for a
    killed process), {!restart} brings the object back on the same
    endpoint with persisted or wiped state.  Clients reconnect on their
    own; as long as at most [t] objects are down, operations keep
    completing — the acceptance test drives 1000 READs across a
    crash/restart and requires zero failures.

    Thread-safety: operations for {e distinct} clients (the writer,
    each reader) may run from distinct threads concurrently; each client
    appends to a {!Record.log} of its own.  One client must not be
    driven from two threads, and {!history} / {!keyed_histories} must
    not run while operations do. *)

type t

val start :
  ?metrics:bool ->
  ?opts:Client.opts ->
  ?transport:[ `Unix | `Tcp ] ->
  ?domains:int ->
  ?interpose:bool ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  readers:int ->
  unit ->
  t
(** Spin up [cfg.s] servers and [readers] reader clients (plus the
    writer).  [transport] defaults to [`Unix].  The objects are sharded
    across [domains] worker domains (default 1).  With
    [interpose:true], a {!Chaos} proxy fronts every server and clients
    dial the proxies — {!chaos} exposes them for rule injection; with no
    rules set the interposers are transparent.  With [metrics:true]
    every component keeps a private registry; {!metrics} merges them. *)

val write : t -> Core.Value.t -> (Client.outcome, string) result
(** One WRITE through the writer client, recorded in the history. *)

val read : t -> reader:int -> (Client.outcome, string) result
(** One READ by reader [reader] (1-based), recorded in the history. *)

val read_pipelined :
  ?coalesce:int ->
  t ->
  inflight:int ->
  ops:int ->
  (Client.outcome, string) result array
(** Drive [ops] key-0 READs with up to [inflight] concurrently in flight
    through a cached {!Client.Keyed} client with [inflight] reader
    lanes, whose reader ids are allocated fresh (above the serial
    readers' — base objects keep per-reader round state, so ids are
    never reused across client generations).  Every operation is
    recorded in the key-0 history under its lane's reader id at its real
    invoke/respond instants, so the checkers see the true concurrency;
    timed-out ops stay open and are resumed by a later call, exactly
    like the serial path.  [coalesce] (default 1 = off) is
    {!Client.Keyed.connect}'s batch cap (see {!Record} for how joined
    reads are recorded).  Changing [inflight] or [coalesce] rebuilds the
    client.
    @raise Invalid_argument if [inflight < 1]. *)

val run_keyed :
  ?inflight:int ->
  ?coalesce:int ->
  ?on_event:(Client.Keyed.event -> unit) ->
  t ->
  map:Shard.Map.t ->
  Client.Keyed.kop array ->
  (Client.outcome, string) result array
(** Drive a keyspace op mix through a cached {!Client.Keyed} whose
    reader id is allocated fresh (key 0 is also served to the plain
    clients, so the keyed reader must not collide with their per-reader
    round state).  The map's fleet must equal the cluster's server
    count.  Every operation records into its key's history — each key
    is an independent register, so the single-register checkers apply
    per key ({!keyed_histories}); key 0's is {!history}.
    [inflight] (default 16) caps concurrently progressing operations;
    [coalesce] (default 1 = off) is {!Client.Keyed.connect}'s per-key
    read-coalescing cap.  Changing [inflight], [coalesce] or the map
    rebuilds the keyed client.
    [on_event] sees every event after it is recorded, from the client's
    event loop — a fault injected there lands while operations are in
    flight.
    @raise Invalid_argument if [inflight < 1] or the map's fleet does
    not match. *)

val keyed_histories : t -> (int * string Histories.Op.t list) list
(** {!Record.histories} of every client so far: one history per key
    that saw an operation, sorted by key id.  Feed each key's list to
    {!Histories.Checks} independently. *)

val keys_touched : t -> int
(** Keys with materialized keyed-client automata so far. *)

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

val now_us : t -> int
(** The cluster's shared microsecond clock (the one histories, spans
    and {!Chaos} rule windows are stamped against). *)

val endpoints : t -> Endpoint.t array
(** What clients dial: the interposers' endpoints when interposed,
    otherwise the servers'. *)

val cfg : t -> Quorum.Config.t

val history : t -> string Histories.Op.t list
(** Key 0's history from {!keyed_histories} (empty if none). *)

val spans : t -> Obs.Span.t list
(** Writer spans then per-reader spans; all share one microsecond
    clock. *)

val metrics : t -> Obs.Metrics.t option
(** Merged snapshot of every component registry (servers then clients);
    [None] unless started with [metrics:true]. *)

val stop : t -> unit
(** Stop servers and clients and remove the socket directory. *)
