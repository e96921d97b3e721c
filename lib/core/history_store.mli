(** Per-object write histories for the regular protocol (Figure 5).

    Object [s_i] keeps, for every writer timestamp it has heard of, the
    pair ⟨pw, w⟩ it received; [w = None] is the paper's nil (the object
    saw the PW round of that write but not yet its W round, or the entry
    was implied by a later PW).  Entry 0 is pre-installed as
    ⟨pw0, w0⟩. *)

type entry = { pw : Tsval.t; w : Wtuple.t option }

type t

val init : t
(** history[0] = ⟨⟨0,⊥⟩, w0⟩. *)

val empty : t
(** No entries at all — only for representing pruned suffixes and
    Byzantine forgeries; honest objects start from {!init}. *)

val find : t -> ts:int -> entry option
(** [None] is the paper's "entry does not exist", to be read as
    ⟨nil, nil⟩ (§5, Figure 6 preamble). *)

val get : t -> ts:int -> entry
(** {!find} without the option box, for hot loops.
    @raise Not_found where {!find} returns [None]. *)

val set : t -> ts:int -> entry -> t

val on_pw : t -> ts':int -> pw':Tsval.t -> w':Wtuple.t -> t
(** Figure 5 lines 5–7: [history[ts'] := ⟨pw', nil⟩];
    [history[ts'-1] := ⟨w'.tsval, w'⟩] (the PW of write [ts'] certifies
    the complete tuple of write [ts'-1]). *)

val on_w : t -> ts':int -> pw':Tsval.t -> w':Wtuple.t -> t
(** Figure 5 line 12: [history[ts'] := ⟨pw', w'⟩]. *)

val suffix : t -> from_ts:int -> t
(** Entries with timestamp >= [from_ts] — the §5.1 optimization's
    reply pruning. *)

val max_ts : t -> int
(** Highest timestamp present; -1 when empty. *)

val length : t -> int

val tuples : t -> Wtuple.t list
(** All non-nil [w] tuples, ascending timestamp — the candidates an
    object's reply contributes (Figure 6 line 20). *)

val bindings : t -> (int * entry) list

val fold : (int -> entry -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the entries in ascending timestamp order, without building
    the binding list. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
