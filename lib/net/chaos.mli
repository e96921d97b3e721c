(** Socket-level fault interposer: a transparent per-object proxy that
    applies a fault plan's network actions to real wire traffic.

    One interposer fronts one server.  Clients dial the interposer's
    endpoint; every accepted connection is paired with a fresh upstream
    connection to the real server (a dial that fails while the server is
    crashed simply closes the client side — exactly what dialing a dead
    server looks like).  Each direction of a pair is relayed as a stream
    of {e opaque frames}: the codec's self-delimiting length prefix lets
    the proxy cut frame boundaries without decoding protocol bytes, so
    batched flushes — N frames in one [write] — survive interposition
    byte-identically when no rule fires.

    Rules are windowed in a shared microsecond clock and matched per
    frame by direction and (optionally) the frame's effective sender:
    the inline sender of a [Hello] or [Msg_key] frame, else the
    session's [Hello] sender, so multiplexed traffic attributes per
    automaton.  A
    matched frame can be dropped, delayed, duplicated, corrupted (body
    bytes scrambled {e after} the frame header, so the result still
    parses as a frame and exercises the peer's total decoding), or
    reordered (held back until the next frame on the link passes).

    {!set_rules} replaces the rule set atomically; the live fault
    backend compiles a {!Fault.Plan} into one rule list per object up
    front, windows included, so a running campaign never races rule
    updates against traffic. *)

type direction =
  | To_server  (** client → server: requests *)
  | To_client  (** server → client: replies *)

type action =
  | Drop
  | Delay of int  (** microseconds, added before forwarding *)
  | Duplicate of int  (** extra copies forwarded after the original *)
  | Corrupt
      (** scramble the payload past the frame header: still a frame,
          no longer a valid message — the live stand-in for a
          Byzantine object's garbage *)
  | Reorder
      (** hold the frame until the next one on this direction passes
          (flushed after a short quiet period, or at window end) *)

type rule = {
  dir : direction;
  sender : string option;
      (** match only frames attributed to this process name ("w",
          "r2"); [None] matches every frame *)
  from_us : int;  (** window start, shared-clock microseconds *)
  until_us : int;  (** window end; [max_int] = until stopped *)
  act : action;
}

type stats = {
  forwarded : int;  (** frames relayed unmodified *)
  dropped : int;
  delayed : int;
  duplicated : int;  (** extra copies sent *)
  corrupted : int;
  reordered : int;
}

type t

val start :
  ?rules:rule list ->
  now_us:(unit -> int) ->
  listen:Endpoint.t ->
  target:Endpoint.t ->
  unit ->
  t
(** Bind [listen] and relay every accepted connection to [target].
    [now_us] is the clock rule windows are evaluated against (the
    cluster passes its shared clock so plan ticks and history
    timestamps agree).  @raise Unix.Unix_error if [listen] cannot be
    bound. *)

val endpoint : t -> Endpoint.t
(** The client-facing address (ephemeral TCP ports resolved). *)

val target : t -> Endpoint.t

val set_rules : t -> rule list -> unit
(** Atomically replace the active rules; takes effect on the next
    frame. *)

val rules : t -> rule list

val stats : t -> stats

val stop : t -> unit
(** Close the listener and every relayed connection; idempotent. *)
