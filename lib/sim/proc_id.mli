(** Process identities of the paper's model (§2): one writer [w], readers
    [r_1 … r_R], and base objects [s_1 … s_S].  Objects are indexed from 1
    to match the paper's notation; readers likewise. *)

type t =
  | Writer
  | Reader of int  (** [Reader j], 1-based. *)
  | Obj of int  (** [Obj i], 1-based: base storage object s_i. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** ["w"], ["r<j>"] or ["s<i>"]: the process names frames carry on the
    wire. *)

val of_string : string -> t option
(** The inverse of {!to_string}: ["w"], ["r<j>"] and ["s<i>"] with
    [i, j >= 1] written without leading zeros; [None] for anything else,
    an id past [max_int] included. *)

val is_object : t -> bool

val is_client : t -> bool
(** Clients are the writer and the readers (paper §2). *)

val objects : s:int -> t list
(** [objects ~s] is [[Obj 1; …; Obj s]]. *)

val readers : r:int -> t list
(** [readers ~r] is [[Reader 1; …; Reader r]]. *)

val obj_index : t -> int
(** Index of an object id.  @raise Invalid_argument on non-objects. *)

val reader_index : t -> int
(** Index of a reader id.  @raise Invalid_argument on non-readers. *)

module Map : Map.S with type key = t

module Set : Set.S with type elt = t
