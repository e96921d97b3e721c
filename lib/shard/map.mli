(** Placement of a multi-register keyspace over a fleet of base-object
    servers.

    The paper's protocols implement one SWMR register over [S = 2t+b+1]
    base objects.  A keyspace is just many such registers: every key id
    in [0, keys) names an independent register, each placed on its own
    group of [S] base objects (its {e shard}) drawn from a [fleet] of
    servers that may be larger than [S].  Placement is a pure function
    of the map's parameters — clients and server domains recompute it
    independently and always agree, so there is no placement service,
    no lookup round, and nothing to keep consistent.

    Two-level placement:

    - {b key → shard}: a hash of the key id ({!mix}, a splitmix64
      finalizer), so zipf-popular {e consecutive} key ids spread over
      all shards;
    - {b shard → members}: shard [i]'s [S] members are fleet slots
      [i, i+1, ..., i+S-1 (mod fleet)] — a rotation per shard, so every
      fleet slot carries the same number of shard memberships.

    Each shard runs the protocol under the {e same} quorum configuration
    [cfg]; per-shard correctness is the paper's single-register
    correctness verbatim, because keys never share automaton state
    (per-key objects server-side, per-key reader/writer machines
    client-side). *)

type t

val make :
  ?shards:int ->
  keys:int ->
  fleet:int ->
  cfg:Quorum.Config.t ->
  unit ->
  (t, string) result
(** [make ~keys ~fleet ~cfg ()] places [keys] registers over [fleet]
    base-object servers in shards of [cfg.s] members each.  [shards]
    defaults to [fleet] (one rotation per starting slot).  Errors if
    [keys < 1], [shards < 1], or the fleet is smaller than [cfg.s]. *)

val make_exn :
  ?shards:int ->
  keys:int ->
  fleet:int ->
  cfg:Quorum.Config.t ->
  unit ->
  t
(** @raise Invalid_argument where {!make} errors. *)

val single : Quorum.Config.t -> t
(** The single register: key 0 alone, in one shard whose members are
    fleet slots [0 .. S-1] in order — the map every key-0-only client
    runs on. *)

val keys : t -> int

val shards : t -> int

val fleet : t -> int

val cfg : t -> Quorum.Config.t

val mix : int -> int
(** The key-id mixer behind placement (splitmix64 finalizer, masked
    nonnegative).  Exposed so load drivers can partition write
    ownership over keys with the same function placement uses. *)

val shard_of_key : t -> int -> int
(** Shard owning a key: [mix key mod shards].
    @raise Invalid_argument outside [0, keys). *)

val member : t -> shard:int -> rank:int -> int
(** Fleet slot (0-based) hosting member [rank] (0-based, < [cfg.s]) of
    [shard].  @raise Invalid_argument out of range. *)

val members : t -> shard:int -> int array
(** All [cfg.s] fleet slots of a shard, in rank order.  Member [rank]
    hosts the shard's base object with 1-based object index [rank+1]. *)

val rank_of_slot : t -> shard:int -> slot:int -> int option
(** Inverse of {!member}: the rank at which fleet slot [slot] serves
    [shard], or [None] if it is not a member.  Used by the keyed client
    to map a reply's connection back to the automaton's object index. *)

val slots_of_key : t -> int -> int array
(** [members] of [shard_of_key]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
