(** Fault rules for live objects: what a fault plan does to the frames
    one object receives and sends.

    A server applies its object's rules inside the worker loop that
    reads, steps and answers for that object ({!Server.set_rules}), so
    the loop hosting an object is the only place its faults happen.
    Rules are windowed in a shared microsecond clock and matched per
    frame by direction and, optionally, the process the frame is
    attributed to: a request's inline sender (a [Hello]'s or a
    [Msg_key]'s), and for a reply, the sender of the request it answers
    ([Hello_ack] and [Err] go to the session's [Hello] sender).

    A request rule ([To_server]) can drop a frame or have the server
    handle it [1+c] times.  A reply rule ([To_client]) can drop, delay,
    duplicate or corrupt it: a corrupted reply keeps its length prefix
    and fixed header, so it still parses as a frame, but its body is
    scrambled — the live stand-in for a Byzantine object's garbage. *)

type direction =
  | To_server  (** client → server: requests *)
  | To_client  (** server → client: replies *)

type action =
  | Drop
  | Delay of int
      (** microseconds a reply waits after it is queued; replies only *)
  | Duplicate of int  (** extra copies after the original *)
  | Corrupt  (** scramble a reply's body past its fixed header; replies only *)

type rule = {
  dir : direction;
  sender : Sim.Proc_id.t option;
      (** match only frames attributed to this process; [None] matches
          every frame *)
  from_us : int;  (** window start, shared-clock microseconds *)
  until_us : int;  (** window end; [max_int] = until the rules change *)
  act : action;
}

type fate = {
  drop : bool;
  corrupt : bool;
  delay_us : int;  (** the sum of the matching delays *)
  copies : int;  (** the sum of the matching duplications *)
}
(** What the rules do to one frame; a drop wins over everything else. *)

val fate :
  rule list -> direction -> sender:Sim.Proc_id.t option -> now_us:int -> fate
(** Combine every rule of [dir] whose window holds [now_us] and whose
    sender matches. *)
