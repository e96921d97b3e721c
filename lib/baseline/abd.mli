(** The ABD register (Attiya-Bar-Noy-Dolev [3]) — the paper's crash-only
    ancestor ([b = 0]).

    SWMR emulation over [s >= 2t + 1] objects: a WRITE broadcasts
    ⟨ts, v⟩ and waits for [s - t] acknowledgments (one round — the
    single writer needs no timestamp discovery); a READ queries all
    objects, waits for [s - t] replies and returns the highest-timestamp
    pair.

    [Regular] returns immediately (one-round reads, regular semantics).
    [Atomic] adds the write-back phase: the reader propagates the chosen
    pair to a quorum before returning, upgrading to atomic semantics —
    with the classic fast-path optimization of skipping the write-back
    when all replies already agree on the timestamp (cf. the paper's
    refs [8, 9] on reads that are fast absent contention).

    Byzantine objects defeat ABD trivially — see the E4 experiment; the
    protocol is benchmarked under crash faults only, its design regime. *)

type msg =
  | Write_req of { ts : int; v : Core.Value.t }
  | Write_ack of { ts : int }
  | Read_req of { rid : int }
  | Read_ack of { rid : int; ts : int; v : Core.Value.t }
  | Write_back of { rid : int; ts : int; v : Core.Value.t }
  | Write_back_ack of { rid : int }

val answers : request:msg -> msg -> bool
(** [answers ~request m]: [m] is an object's reply to [request] — the
    ack of the same phase, echoing its [ts] or [rid]. *)

module Regular : Core.Protocol_intf.S with type msg = msg

module Atomic : Core.Protocol_intf.S with type msg = msg

(** {2 Byzantine strategies for the attack experiments} *)

val byz_forge_high : value:string -> ts_boost:int -> msg Core.Byz.factory
(** Replies to reads with a forged pair above every timestamp seen —
    breaks ABD's safety with a single malicious object. *)
