(** Span-based operation tracing.

    Every READ/WRITE a scenario drives opens a span at invocation and
    closes it at completion.  A span carries the issuing process, the
    virtual start/end times, each round transition (the instant the
    client broadcast the next round's request), the set of base objects
    the client heard from, and the index range of the raw {!Sim.Trace}
    entries recorded while it was open — the low-level messages the span
    subsumes.

    [rounds] counts rounds {e initiated} (1 + transitions): the paper's
    "every READ and WRITE completes in exactly 2 rounds" is a statement
    about initiated rounds, and the conformance suite asserts it on this
    field.  [reported_rounds] is the round count the protocol's own
    state machine reported at completion, which can be lower when a read
    decides on round-1 evidence while its round-2 message is in flight. *)

type kind = Read of { reader : int } | Write

val kind_to_string : kind -> string

type t = {
  id : int;  (** dense, in invocation order *)
  kind : kind;
  proc : string;  (** issuing process, e.g. ["w"], ["r2"] *)
  started_at : int;
  trace_first : int;  (** raw-trace index at invocation *)
  mutable rounds : int;
  mutable rev_transitions : (int * int) list;
  mutable rev_contacted : int list;
  mutable replies : int;  (** object messages received while open *)
  mutable completed_at : int option;
  mutable reported_rounds : int option;
  mutable result : string option;  (** rendered read result *)
  mutable trace_len : int;  (** raw-trace entries recorded while open *)
}

val completed : t -> bool

val transitions : t -> (int * int) list
(** [(round, at)] in chronological order; empty for 1-round operations. *)

val contacted : t -> int list
(** Distinct object indices heard from, sorted. *)

val pp : Format.formatter -> t -> unit

val create : id:int -> kind -> proc:string -> now:int -> trace_pos:int -> t
(** A fresh open span: its owner numbers it and decides how long it
    lives. *)

val transition : t -> now:int -> unit
(** The client just broadcast its next round. *)

val contact : t -> obj:int -> unit
(** The client received a message from base object [obj]. *)

val finish :
  t -> now:int -> rounds:int -> ?result:string -> trace_pos:int -> unit -> unit
