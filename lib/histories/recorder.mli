(** Mutable history recorder.

    Protocol clients call [invoke_*]/[respond_*] as their operations start
    and finish; the recorder assigns ids and monotonic stamps and hands the
    finished history to the checkers.  Write indices are assigned in
    invocation order, matching the paper's single-writer numbering
    [wr_1, wr_2, …].  It builds every runtime's histories: the
    simulator's, the live record's and the model checker's. *)

type 'v t

type op_handle

val create : unit -> 'v t

val invoke_write : 'v t -> time:int -> 'v -> op_handle
(** @raise Invalid_argument if a write is already in progress (the paper's
    single writer invokes one operation at a time). *)

val respond_write : ?rounds:int -> 'v t -> op_handle -> time:int -> unit
(** [rounds] is the round count the writer's automaton reported; an op
    recorded without it is never held to a round bound. *)

val invoke_read : 'v t -> time:int -> reader:int -> op_handle
(** @raise Invalid_argument if this reader already has a read in
    progress. *)

val respond_read :
  ?rounds:int -> 'v t -> op_handle -> time:int -> 'v Op.read_result -> unit
(** [rounds] as {!respond_write}'s. *)

val ops : 'v t -> 'v Op.t list
(** All operations, in invocation order; in-progress operations appear
    with [responded_stamp = None]. *)
