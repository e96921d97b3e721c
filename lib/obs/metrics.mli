(** Metrics registry: counters and mergeable fixed-bucket histograms.

    The registry is the accumulation point for everything the
    observability layer measures — read/write round counts per protocol,
    messages per operation, event-queue depth, wall-clock per simulated
    event.  All structures are deterministic: iteration orders are
    sorted by metric name, and histograms use caller-fixed bucket
    bounds, so two registries fed the same observations render and
    export identically.  Histograms with identical bounds merge
    associatively and commutatively, which is what lets a chaos campaign
    aggregate per-run registries into one per-cell registry. *)

module Histogram : sig
  type t

  val create : bounds:float array -> t
  (** Fixed buckets with the given strictly-increasing inclusive upper
      bounds, plus an implicit overflow bucket.  @raise Invalid_argument
      on empty or non-increasing bounds. *)

  val bounds : t -> float array

  val observe : t -> float -> unit

  val observe_int : t -> int -> unit

  val count : t -> int

  val sum : t -> float

  val mean : t -> float
  (** 0. when empty. *)

  val min_exn : t -> float
  (** @raise Invalid_argument when empty. *)

  val max_exn : t -> float
  (** @raise Invalid_argument when empty. *)

  val counts : t -> int array
  (** Per-bucket counts, overflow last. *)

  val buckets : t -> (float * float * int) list
  (** [(lo, hi, count)] with half-open [(lo, hi]] semantics; the first
      [lo] is [neg_infinity] and the last [hi] is [infinity]. *)

  val compatible : t -> t -> bool
  (** Same bucket bounds — the precondition for {!merge}. *)

  val merge : t -> t -> t
  (** Sum of both histograms; associative and commutative over any set
      of histograms with equal bounds.  @raise Invalid_argument if the
      bounds differ. *)

  val equal : t -> t -> bool
  (** Same bounds and same per-bucket counts. *)

  val restore :
    bounds:float array ->
    counts:int array ->
    sum:float ->
    minv:float ->
    maxv:float ->
    t
  (** Rebuild a histogram from exported state ([counts] includes the
      trailing overflow bucket); the inverse of an export, used to merge
      registries across processes.  The total is recomputed from
      [counts]; [sum]/[minv]/[maxv] are ignored when the counts are all
      zero.  @raise Invalid_argument on bad bounds, a length mismatch
      or a negative count. *)

  val quantile : t -> float -> float
  (** Nearest-rank quantile at bucket resolution: the inclusive upper
      bound of the bucket containing the rank-th smallest observation
      (the observed maximum for the overflow bucket).  Agrees with
      {!Stats.Summary.percentile} up to one bucket width.
      @raise Invalid_argument when empty or [p] outside [0,100]. *)

  val pp : Format.formatter -> t -> unit
end

(** {2 Canonical bucket layouts}

    Shared bounds keep independently recorded histograms mergeable. *)

val round_bounds : float array
(** Per-operation protocol round counts (the paper's 1/2-round claims). *)

val depth_bounds : float array
(** Event-queue depth. *)

val count_bounds : float array
(** Small cardinalities: messages per operation, replies, words. *)

val latency_bounds : float array
(** Virtual-time operation latencies. *)

val wallclock_bounds : float array
(** Microseconds of host wall-clock per simulated event. *)

val batch_bounds : float array
(** Batching widths: frames coalesced into one socket write
    ([wire.batch_size]) and reads coalesced into one quorum round
    ([op.coalesce_width] — observed once per batch member, so the
    histogram weights by op; a median above its lowest bucket means
    most reads shared a round). *)

val bytes_bounds : float array
(** Encoded frame sizes in bytes ([wire.bytes_per_frame]), fine-grained
    at the small end where a key tag's +1–2 bytes must stay visible. *)

(** {2 Registry} *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val counter_value : t -> string -> int
(** 0 for a counter never touched. *)

(** {2 Interned counter handles}

    Hot paths (the engine's per-message accounting) resolve a counter
    by name once and then bump the handle, avoiding a hash lookup and
    any name construction per event. *)

type counter

val counter : t -> string -> counter
(** Get-or-create: the counter is registered (and will appear in
    {!counters} and exports, initially at 0) as soon as it is interned,
    so intern on first use if an untouched counter must stay absent. *)

val counter_incr : counter -> unit

val histogram : t -> string -> bounds:float array -> Histogram.t
(** Get-or-create; the bounds only apply on creation. *)

val observe : t -> string -> bounds:float array -> float -> unit

val observe_int : t -> string -> bounds:float array -> int -> unit

val find_histogram : t -> string -> Histogram.t option

val add_histogram : t -> string -> Histogram.t -> unit
(** Merge [h] into the registry's histogram of that name (a fresh copy
    when absent, so the argument stays independent).
    @raise Invalid_argument if an existing histogram's bounds differ. *)

val counters : t -> (string * int) list
(** Sorted by name, as are {!histograms}. *)

val histograms : t -> (string * Histogram.t) list

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst]: counters add, histograms merge.  [src] is
    left untouched. *)

val table : t -> Stats.Table.t
(** One row per metric, sorted by name. *)
