(** Wire messages of the paper's protocols.

    One message type serves both the safe (Figures 2–4) and the regular
    (Figures 2, 5–6) storage: the WRITE side (PW/W and their acks) is
    identical — the protocols differ only in what objects store and in
    the READ acks ([Read*_ack] carry ⟨pw, w⟩ for the safe storage,
    [Read*_ack_h] carry a history for the regular one).

    [Read1]/[Read2] carry [from_ts], the §5.1 cache timestamp; the safe
    protocol and the unoptimized regular protocol always send 0
    ("everything"). *)

type t =
  | Pw of { ts : int; pw : Tsval.t; w : Wtuple.t }
      (** Writer round 1: write ⟨pw, w⟩, read back reader timestamps. *)
  | Pw_ack of { ts : int; tsr : int Ints.Map.t }
      (** Object reply: its [tsr[*]] field (absent reader = 0). *)
  | W of { ts : int; pw : Tsval.t; w : Wtuple.t }  (** Writer round 2. *)
  | W_ack of { ts : int }
  | Read1 of { tsr : int; from_ts : int }
  | Read2 of { tsr : int; from_ts : int }
  | Read1_ack of { tsr : int; pw : Tsval.t; w : Wtuple.t }
  | Read2_ack of { tsr : int; pw : Tsval.t; w : Wtuple.t }
  | Read1_ack_h of { tsr : int; history : History_store.t }
  | Read2_ack_h of { tsr : int; history : History_store.t }

val info : t -> string
(** Compact rendering for traces. *)

val pp : Format.formatter -> t -> unit

val size_words : t -> int
(** Abstract message size in "words" (timestamps, value payloads and
    matrix entries each count 1) — the unit for the E3 message-size
    experiment comparing full-history and pruned-history replies. *)

val is_read_round : t -> int option
(** [Some 1] for [Read1], [Some 2] for [Read2], [None] otherwise. *)

val classify : t -> Obs.Wire.t
(** Observability classification shared by every protocol speaking this
    wire format (safe, regular, and their variants). *)

val answers : request:t -> t -> bool
(** [answers ~request m]: [m] is an object's reply to [request] — the
    ack of the same round, echoing its timestamp ([ts] for PW/W, [tsr]
    for READ1/READ2).  The writer and reader automata accept exactly
    these replies, so a late ack of a previous round or operation never
    answers the current request. *)
