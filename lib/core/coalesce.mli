(** Read-coalescing batches: one quorum round shared by many reads.

    A batch rides a READ round while its round-1 message is still being
    {e assembled} (sent to the host, not yet flushed to the wire).  Reads
    of the same key invoked in that window {!join} the batch instead of
    starting a round of their own, and adopt its result; the moment the
    message leaves, the round driver ({!Driver}) {!close}s the batch, and
    later reads chain onto the next round.  Every member is thus invoked
    before any base object has seen the request, so all the evidence the
    round gathers lies inside every member's invoke–respond interval:
    the single-read argument for regularity holds for each (DESIGN §16).

    The structure is a bounded bag: a lead (the read that started the
    round, implicit — width counts it) plus at most [cap - 1] joiners,
    in join order.  It is single-threaded, like the driver that owns
    it. *)

type 'a t

val create : cap:int -> 'a t
(** A fresh open batch holding just the lead ([width] 1).  [cap] is the
    maximum width including the lead; it is clamped to at least 1. *)

val cap : 'a t -> int

val is_open : 'a t -> bool

val can_join : 'a t -> bool
(** Open and below [cap]. *)

val join : 'a t -> 'a -> unit
(** Append a joiner.  @raise Invalid_argument unless {!can_join}. *)

val try_join : 'a t -> 'a -> bool
(** [join] if {!can_join}; reports whether it happened. *)

val close : 'a t -> unit
(** The round-1 broadcast left the process: no further joins.
    Idempotent. *)

val width : 'a t -> int
(** Lead + joiners so far. *)

val joiners : 'a t -> 'a list
(** Joiners in join order (excludes the lead). *)

val iter_joiners : ('a -> unit) -> 'a t -> unit
(** Iterate joiners in join order without building the list. *)
