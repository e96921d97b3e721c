(** Failure/resilience configurations.

    A configuration fixes the number of base objects [s], the failure
    bound [t], and the Byzantine sub-bound [b] (paper §2: at most [t]
    objects fail, of which at most [b] arbitrarily; the paper assumes
    [b > 0], while the crash-only baselines use [b = 0]). *)

type t = private { s : int; t : int; b : int }

val make : s:int -> t:int -> b:int -> (t, string) result
(** Validates [0 <= b <= t], [t >= 0], and [s >= 1].  Resilience bounds
    are checked separately ({!meets_resilience_bound}) because the lower-
    bound experiments intentionally build under-provisioned systems. *)

val make_exn : s:int -> t:int -> b:int -> t
(** @raise Invalid_argument on invalid parameters. *)

val optimal_s : t:int -> b:int -> int
(** The optimal resilience threshold [2t + b + 1] ([17], paper §1). *)

val optimal : t:int -> b:int -> t
(** The optimally resilient configuration [s = 2t + b + 1]. *)

val is_optimally_resilient : t -> bool

val meets_resilience_bound : t -> bool
(** [s >= 2t + b + 1]: any wait-free robust storage needs this many
    objects. *)

val fast_read_admissible : t -> bool
(** [s >= 2t + 2b + 1]: what makes {e every} read single-round despite
    [b] lying objects.  By the paper's Proposition 1, no safe storage at
    or below [2t + 2b] serves all reads in one round; a read there may
    still decide on round 1, unless a lie or an overlapping write blocks
    the decision. *)

val quorum : t -> int
(** [s - t]: the number of replies a client can always wait for (the
    round-termination threshold of §2.3). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool
