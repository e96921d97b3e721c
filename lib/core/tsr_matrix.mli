(** The reader-timestamp matrix [tsrarray[1..S][1..R]] (Figure 2).

    Row [i] holds the reader timestamps object [s_i] reported to the
    writer in its [PW_ACK]; an absent row is the paper's [nil] (the object
    did not answer the PW round).  Within a present row, an absent reader
    entry stands for that object's initial [tsr[j] = 0].

    The representation is a sparse immutable map-of-maps so that tuples
    containing matrices can be compared, hashed, and used as map keys —
    which the reader's candidate bookkeeping and the model checker
    require. *)

type t

val empty : t
(** The writer's [inittsrarray]: all rows nil. *)

val set_row : t -> obj:int -> int Map.Make(Int).t -> t
(** [set_row m ~obj row] installs the reader→timestamp map reported by
    object [obj] (the writer's [currenttsrarray[i] := tsr], Figure 2
    line 11). *)

val row : t -> obj:int -> int Map.Make(Int).t option
(** [None] is the paper's nil row. *)

val row_present : t -> obj:int -> bool

val rows_present : t -> int list
(** Ascending object indices with non-nil rows. *)

val row_count : t -> int
(** Number of non-nil rows, without materialising the index list. *)

val fold_rows : (int -> int Map.Make(Int).t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over non-nil rows in ascending object order.  Lets encoders
    walk the matrix without building an intermediate binding list. *)

val get : t -> obj:int -> reader:int -> int option
(** [None] iff the row is nil; [Some ts] otherwise, where an absent
    reader entry yields [Some 0]. *)

val exceeds : t -> obj:int -> reader:int -> bound:int -> bool
(** [exceeds m ~obj ~reader ~bound] is true iff the matrix claims object
    [obj] reported a timestamp of [reader] strictly above [bound] — the
    core of the [conflict] predicate (Figure 4, line 1). *)

val defames : t -> reader:int -> bound:int -> bool
(** [defames m ~reader ~bound] is true iff [exceeds m ~obj ~reader
    ~bound] holds for some object [obj].  A reader whose candidates'
    matrices defame no object has no [conflict] to look for; without
    lying objects a round-1 bound is never exceeded. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
