(** Register values.

    The storage holds opaque byte strings; [Bottom] is the paper's special
    initial value ⊥, which is never a valid WRITE input (§2.2). *)

type t =
  | Bottom
  | V of string

val bottom : t

val v : string -> t
(** [v s] wraps a payload.  Unlike [V], never produces [Bottom]. *)

val is_bottom : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val payload : t -> string option
(** [Some s] for [V s], [None] for [Bottom]. *)

val to_result : t -> string Histories.Op.read_result
(** What a history records for a read that returned this value. *)
