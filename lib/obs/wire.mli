(** Protocol-independent classification of wire messages.

    Every {!Core.Protocol_intf.S} implementation maps its concrete
    message type onto this small vocabulary ([msg_class]), which is what
    lets the engine and the metrics layer count messages per operation
    kind and per round without knowing any protocol's wire format. *)

type op = Read | Write | Other

type t = {
  op : op;
  round : int;  (** 1-based protocol round; 0 for [Other] *)
  request : bool;  (** client-to-object direction *)
}

val read : round:int -> request:bool -> t

val write : round:int -> request:bool -> t

val other : t

val op_to_string : op -> string

val to_string : t -> string
(** Stable metric-label rendering, e.g. ["read.r1.req"], ["write.r2.ack"],
    ["other"]. *)

(** Where a message was counted: put on the wire, handed to its
    destination, or lost (a crashed or unknown destination). *)
type stage = Sent | Delivered | Dropped

val stage_to_string : stage -> string
(** ["sent"], ["delivered"], ["dropped"]: the last label of a
    ["wire.<class>.<stage>"] counter. *)
