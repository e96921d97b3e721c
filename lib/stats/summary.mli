(** Online summary statistics.

    Collects samples (latencies, round counts, message sizes) and reports
    count, extrema, mean, variance (Welford's algorithm, numerically
    stable), and exact percentiles.  Used by every experiment table. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0. with fewer than two samples. *)

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]: nearest-rank percentile over the
    retained samples.  @raise Invalid_argument when empty or p outside the
    range. *)

val median : t -> float

val samples : t -> float list
(** All samples in insertion order. *)

val merge : t -> t -> t
(** Combined summary over both sample sets. *)

val pp : Format.formatter -> t -> unit
(** One-line [n/mean/p50/p99/max] rendering. *)

module Histogram : sig
  type summary := t

  type t

  val of_summary : summary -> buckets:int -> t
  (** Equal-width buckets spanning [min, max].  @raise Invalid_argument if
      the summary is empty or [buckets <= 0]. *)

  val buckets : t -> (float * float * int) list
  (** [(lo, hi, count)] per bucket, ascending. *)

  val pp : Format.formatter -> t -> unit
  (** ASCII-art rendering for terminal reports. *)
end
