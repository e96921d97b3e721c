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

val off : t
(** The registry of a component given none: it records nothing, and a
    handle on it does nothing.  One metering path then serves metered
    and unmetered runs alike. *)

val enabled : t -> bool
(** [false] only for {!off}, so a path can skip work done for metrics. *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val counter_value : t -> string -> int
(** 0 for a counter never touched. *)

(** {2 Handles}

    The one way a per-op or per-message path meters.  A component makes
    its handles once, when it is created, and bumps them on the hot path:
    no metric name is built and no table is searched there.  A handle
    registers its metric on first use, so a registry, its {!table} and
    its exports list exactly the metrics a run touched.  The string-keyed
    {!incr} and {!add} above stay for rare events (timeouts, reconnects,
    resyncs) and post-run summaries. *)

type counter

val counter : t -> string -> counter

val counter_incr : counter -> unit

type histogram

val histogram : t -> string -> bounds:float array -> histogram
(** [bounds] apply if the histogram is absent at its first observation. *)

val histogram_observe : histogram -> float -> unit

val histogram_observe_int : histogram -> int -> unit

type 'm wire
(** The per-class message counters ["wire.<class>.<stage>"] (e.g.
    ["wire.read.r1.req.sent"]), indexed by {!Wire} class (op, round,
    direction) and {!Wire.stage}. *)

val wire : t -> ('m -> Wire.t) -> 'm wire
(** A table that classifies each message it counts with the given
    function (a protocol's [msg_class]); on {!off} it classifies
    nothing. *)

val wire_incr : 'm wire -> Wire.stage -> 'm -> unit

val requests_sent : ?op:Wire.op -> t -> int
(** Requests put on the wire: the [wire.<class>.sent] counters of
    request classes, summed (of [op]'s classes only, if given). *)

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
