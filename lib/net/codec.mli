(** Versioned length-prefixed binary framing for the protocol wire
    messages.

    The simulator moves OCaml values between pure state machines; the
    network runtime moves bytes between processes.  This module is the
    boundary: a compact binary encoding for each protocol's message type
    plus a self-describing frame layout shared by every connection.

    Frame layout (everything big-endian):

    {v
    +----------------+------+---------+------+----------------+
    | length (u32)   | 'R'  | version | kind | body ...       |
    +----------------+------+---------+------+----------------+
                       'B'
    v}

    [length] counts the bytes after the length field.  [kind]
    distinguishes the session-control frames ({!Hello}, {!Hello_ack},
    {!Err}) from protocol messages, which travel in one frame kind,
    {!Msg_key}: a key id, the sending process, and the message body.
    Integers inside bodies are zigzag LEB128 varints; strings are
    length-prefixed.

    Version 2 dropped the untagged message frames of version 1, whose
    messages addressed key 0 implicitly: every client now tags its
    messages with a key, so one frame kind serves all of them.  A peer
    speaking version 1 is rejected at its first frame.

    Decoding is total: every exported decode function returns [Error]
    on truncated, oversized, or corrupt input — it never raises, which
    the codec property suite checks on adversarial byte strings. *)

val version : int
(** Wire format version stamped into (and checked on) every frame. *)

val max_frame : int
(** Upper bound on a frame's payload size; larger length prefixes are
    rejected before any allocation. *)

type error = string

(** {2 Encode scratch}

    Each connection owns an [Out]: frames are appended back to back and
    flushed with a single [write].  Because frames are length-prefixed
    and self-delimiting, N frames per write is byte-identical to N
    writes of one frame each — batching is invisible to the peer.  The
    backing storage comes from a small pooled arena (4–64 KiB power-of-
    two classes), so steady-state encoding allocates nothing per
    message; buffers that ballooned for a one-off large frame are
    dropped back to pool size after the flush. *)

module Out : sig
  type t

  val create : unit -> t

  val length : t -> int
  (** Bytes appended since the last {!clear}. *)

  val pending : t -> int
  (** Bytes not yet flushed (a partial {!flush_nonblock} consumes a
      prefix). *)

  val clear : t -> unit

  val contents : t -> string
  (** Everything appended since the last clear, flushed or not. *)

  val recycle : t -> unit
  (** Return the backing buffer to the arena.  The scratch stays usable
      (it re-acquires storage on the next append). *)
end

(** {2 Per-protocol message codecs} *)

type 'm t
(** Encoder/decoder pair for one protocol's message type ['m]. *)

type 'm codec = 'm t

val name : 'm t -> string
(** Short codec identifier ("core", "abd"), embedded in [Hello]
    validation errors. *)

val messages : Core.Messages.t t
(** The safe/regular family ({!Core.Messages.t}): PW/W write rounds,
    READ1/READ2 with tuple or history-suffix acks. *)

val abd : Baseline.Abd.msg t
(** The ABD baseline's read/write/write-back messages. *)

val answers : 'm t -> request:'m -> 'm -> bool
(** Whether a decoded message is an object's reply to [request]: the
    ack of the same round echoing its timestamp
    ({!Core.Messages.answers}, {!Baseline.Abd.answers}).  A client
    counts a reply toward a round's quorum only when it answers the
    round's current request, so a late ack of an earlier request on the
    same (key, sender) is not mistaken for one. *)

val encode_msg : 'm t -> 'm -> string
(** Message body only (no frame header) — what a [Msg_key] frame
    carries after its key and sender. *)

val decode_msg : 'm t -> string -> ('m, error) result
(** Strict inverse of {!encode_msg}: trailing bytes are an error. *)

(** {2 Frames} *)

type 'm frame =
  | Hello of { proto : string; sender : string; obj : int }
      (** First frame on every connection: the protocol the client
          speaks, its process name ("w", "r3"), and the object index it
          believes it dialed (0 = any). *)
  | Hello_ack of { proto : string; obj : int }
      (** Server's reply: the protocol it hosts and the actual object
          index. *)
  | Msg_key of { key : int; sender : string; msg : 'm }
      (** A protocol message for one register of a keyspace: the varint
          [key] (>= 0) names the register (the single register is key
          0) and [sender] the automaton ("w", "r3") that sent it, so one
          connection multiplexes traffic for many keys times many
          automata.  Servers reply in kind, echoing both [key] and
          [sender], which is how a client demultiplexes concurrent
          operations. *)
  | Err of string
      (** Terminal: the peer rejected the session or a frame; the
          connection closes after sending it. *)

val frame_info : msg_info:('m -> string) -> 'm frame -> string

val encode_frame : 'm t -> 'm frame -> string
(** Full wire bytes, length prefix included. *)

val encode_frame_into : 'm t -> Out.t -> 'm frame -> unit
(** Append one full frame (length prefix included) to the scratch; the
    zero-allocation path used by the runtime.  The bytes appended are
    exactly {!encode_frame}'s.  @raise Invalid_argument on an oversized
    frame (the scratch is left unchanged). *)

val decode_payload : 'm t -> string -> ('m frame, error) result
(** Decode one frame payload (the bytes after the length prefix). *)

val corrupt_frame : Out.t -> at:int -> unit
(** Scramble the body of the frame appended at offset [at] (an
    {!Out.length} taken before appending it): every byte past its length
    prefix and fixed header.  The frame still parses as a frame of its
    kind, but its body is garbage to the peer's decoder — what a fault
    rule sends in place of a reply ({!Chaos.Corrupt}). *)

(** {2 Incremental frame extraction}

    A stream socket delivers byte runs that need not align with frame
    boundaries; each connection owns a [Reader] that buffers partial
    input and yields complete frames. *)

module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed r b off len] appends [len] bytes of received data. *)

  val next : 'm codec -> t -> ([ `Frame of 'm frame | `Awaiting ], error) result
  (** Extract the next complete frame, [`Awaiting] if more bytes are
      needed.  An [Error] means the stream is corrupt (bad magic,
      version, oversized length): the connection cannot resynchronize
      and must be closed.  Frames decode in place out of the receive
      buffer — no per-frame payload copy. *)

  val pending : t -> int
  (** Buffered bytes not yet consumed. *)

  val capacity : t -> int
  (** Current backing-buffer size.  The buffer grows for large frames
      and shrinks back to a pool-class size once they drain, so a
      single oversized frame does not pin peak capacity forever. *)

  val reset : t -> unit
  (** Discard buffered bytes (a reconnect starts a fresh stream). *)

  val recycle : t -> unit
  (** Return the backing buffer to the arena; the reader stays usable. *)
end

(** {2 Socket helpers} *)

val send : Unix.file_descr -> string -> unit
(** Write the whole string (retrying short writes).
    @raise Unix.Unix_error like [Unix.write]. *)

val flush : Unix.file_descr -> Out.t -> unit
(** Write everything buffered in the scratch (retrying short writes),
    then clear it.  One [flush] after N {!encode_frame_into}s is the
    batched send path.  @raise Unix.Unix_error like [Unix.write]. *)

val flush_nonblock : Unix.file_descr -> Out.t -> [ `Done | `Blocked ]
(** Non-blocking flush for event-loop servers: writes as much as the
    socket accepts; [`Blocked] leaves the unsent suffix pending.
    @raise Unix.Unix_error on hard errors (not EAGAIN). *)

val recv_into : Unix.file_descr -> Reader.t -> int
(** Read one chunk directly into the reader's buffer (no intermediate
    allocation); returns the byte count, 0 at EOF.
    @raise Unix.Unix_error like [Unix.read]. *)
