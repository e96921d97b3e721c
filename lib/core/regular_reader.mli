(** The regular-storage reader — Figure 6, plus the §5.1 optimization.

    Structure mirrors {!Safe_reader} (two rounds, timestamp writes in
    both, conflict-free round-1 quorum), but decisions are taken over the
    objects' {e histories}: a candidate [c] is [safe] once [b + 1]
    objects confirm the entry at [c]'s timestamp, and [invalid] (dropped)
    once [t + b + 1] objects contradict or miss that entry.

    With [cached = true] the reader remembers the timestamp-value pair it
    last returned, asks objects only for the history suffix from that
    timestamp on (drastically smaller replies, §5.1), and falls back to
    the cached value when the candidate set empties.  With
    [cached = false] the behaviour is the unoptimized Figure 6: the
    initial tuple w0 keeps the candidate set non-empty forever, and the
    cache stays ⟨0, ⊥⟩, so both variants share this one implementation. *)

type t

type event =
  | Broadcast of Messages.t
  | Return of { value : Value.t; rounds : int }

val init : cfg:Quorum.Config.t -> j:int -> cached:bool -> unit -> t
(** The reader applies Figure 6's decision to round-1 evidence at every
    [S]: once round 1 completes, it returns the highest surviving
    candidate if [b + 1] objects vouch for it, and only otherwise runs
    round 2.  At [S >= 2t + 2b + 1] that decision always succeeds (the
    one-round fast read); below it a read still decides on round 1
    unless a lie or an overlapping write leaves the top candidate
    neither safe nor invalid — Proposition 1's case. *)

val on_reconnect : t -> t
(** Transport hook: the connection to a base object was re-established
    (client reconnect or server restart), so suffix replies computed
    against the cached timestamp can no longer be trusted.  Clears the
    timestamp cache when idle; during an in-flight read it marks the
    cache stale instead (the fallback of the current read still needs
    it) and the next {!start_read} clears it.  No-op when
    [cached = false]. *)

val reader_index : t -> int

val tsr : t -> int

val cache : t -> Tsval.t
(** Last returned timestamp-value pair (⟨0, ⊥⟩ initially and always when
    [cached = false]). *)

val is_idle : t -> bool

val start_read : t -> (t * Messages.t, string) result

val on_message : t -> obj:int -> Messages.t -> t * event list

(** {2 Introspection for tests and experiments} *)

val candidates : t -> Wtuple.Set.t

val responded_round1 : t -> Ints.Set.t

val responded_round2 : t -> Ints.Set.t
