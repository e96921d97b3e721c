(** Events emitted by client state machines towards the round driver,
    polymorphic in the protocol's wire message type so that the paper's
    protocols and the baselines share one driver (see {!Driver}). *)

type 'msg client_event =
  | Broadcast of 'msg  (** send to every base object *)
  | Write_done of { rounds : int }
  | Read_done of { value : Value.t; rounds : int }
