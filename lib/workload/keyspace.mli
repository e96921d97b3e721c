(** Keyspace workloads: skewed read/write traffic over many registers.

    The multi-register experiments (E19) need the traffic shape real
    key-value stores see: a large key universe where popularity is
    heavily skewed — a few hot keys take most of the traffic while the
    long tail stays cold — and reads dominate writes.  This generator
    produces exactly that, deterministically: the whole op stream is a
    pure function of [(keys, skew, write_ratio, seed)], so two runs (or
    a run and its re-check) see identical traffic.

    Key popularity follows the standard zipfian construction (Gray et
    al., as popularized by YCSB's ZipfianGenerator): key 0 is the most
    popular and rank [r]'s probability falls off as [1/(r+1)^skew].
    [skew = 0] degenerates to the uniform distribution; YCSB's default
    hot-spot regime is [skew = 0.99].  Below [skew = 1] the zeta
    normalization constant is precomputed once in O(keys) and each draw
    is O(1) via YCSB's closed-form CDF inverse; that inverse has a pole
    at [skew = 1] ([alpha = 1/(1-skew)]), so at or above it — proper
    Zipf, where the hot key takes a constant fraction of all traffic —
    draws invert the exact cumulative table by binary search
    (O(keys) once, O(log keys) per draw).

    Write values are ["k<key>.<n>"] with [n] a per-key sequence number,
    so every key's history has distinct write values and the checkers'
    observed-write mapping stays unambiguous.

    The registers are SWMR: when several processes share one seed-split
    workload, at most one of them may write any given key.  That is what
    [write_filter] is for — a process passes a predicate accepting only
    the keys it owns (e.g. [Shard.Map.mix key mod procs = me]), and the
    generator converts non-owned write draws into reads, keeping the
    key-popularity marginal identical across processes. *)

type op = Core.Driver_ops.kop =
  | Read of { key : int }
  | Write of { key : int; value : Core.Value.t }
(** The round driver's keyed operation, so a drawn stream runs on a
    client engine as it is. *)

val op_key : op -> int

val op_is_write : op -> bool

type t
(** Mutable generator state (PRNG position and per-key write
    sequence numbers). *)

val make :
  ?skew:float ->
  ?write_ratio:float ->
  ?write_filter:(int -> bool) ->
  keys:int ->
  seed:int ->
  unit ->
  (t, string) result
(** [make ~keys ~seed ()] builds a generator over key ids [0, keys).
    [skew] (default 0 = uniform) must be finite and nonnegative;
    [write_ratio] (default 0.05) in [0, 1]; [write_filter] (default:
    accept all) restricts which keys this generator is allowed to
    write. *)

val make_exn :
  ?skew:float ->
  ?write_ratio:float ->
  ?write_filter:(int -> bool) ->
  keys:int ->
  seed:int ->
  unit ->
  t
(** @raise Invalid_argument where {!make} errors. *)

val keys : t -> int

val skew : t -> float

val write_ratio : t -> float

val next : t -> op
(** Draw the next operation: a zipfian key, then a write with
    probability [write_ratio] if [write_filter] admits the key, else a
    read. *)

val ops : t -> int -> op array
(** [ops t n] draws [n] operations.  @raise Invalid_argument on a
    negative count. *)
