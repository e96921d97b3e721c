(** Operations and the precedence relation (paper §2.2).

    A history is a set of READ/WRITE operations with invocation and
    response events.  Events carry both the simulated time (for reports)
    and a strictly increasing stamp (for an unambiguous precedence
    relation: [op1] precedes [op2] iff [op1]'s response stamp is smaller
    than [op2]'s invocation stamp). *)

type 'v read_result =
  | Bottom  (** the initial value ⊥, never a valid WRITE input *)
  | Value of 'v

type 'v action =
  | Write of { index : int; value : 'v }
      (** [index] is k for the k-th WRITE (1-based); single-writer
          histories order writes naturally. *)
  | Read of { reader : int; result : 'v read_result option }
      (** [result = None] iff the READ never completed. *)

type 'v t = {
  id : int;
  action : 'v action;
  invoked_at : int;  (** simulated time of invocation *)
  invoked_stamp : int;
  responded_at : int option;  (** simulated time of response, if any *)
  responded_stamp : int option;
  rounds : int option;
      (** the rounds its automaton reported at its response; [None]
          while it is open, or when it was recorded without them *)
}

val is_complete : 'v t -> bool

val completed : 'v t list -> 'v t list
(** The complete operations of a history, in the order they responded
    (by [responded_stamp]). *)

val latency : 'v t -> int
(** Response time minus invocation time.
    @raise Invalid_argument if the operation never responded. *)

val is_write : 'v t -> bool

val is_read : 'v t -> bool

val precedes : 'v t -> 'v t -> bool
(** [precedes a b]: [a] completed before [b] was invoked. *)

val concurrent : 'v t -> 'v t -> bool
(** Neither precedes the other (and they are distinct operations). *)

val write_index : 'v t -> int option

val read_result : 'v t -> 'v read_result option
(** The result of a complete READ; [None] for writes or incomplete
    reads. *)

val pp_result :
  pp_value:(Format.formatter -> 'v -> unit) ->
  Format.formatter ->
  'v read_result option ->
  unit
(** A read's result as {!pp} prints it: [?] while the read is open,
    [_|_] for ⊥. *)

val pp : pp_value:(Format.formatter -> 'v -> unit) -> Format.formatter -> 'v t -> unit
