(** Consistency checkers for SWMR register histories (paper §2.2).

    Each checker consumes a finished history ({!Recorder.ops}) and returns
    the list of violating reads — empty means the property holds.  The
    properties are exactly the paper's:

    - {b safety}: a READ not concurrent with any WRITE returns the value
      of the last preceding WRITE (or ⊥ if there is none); a concurrent
      READ may return anything.
    - {b regularity}: (1) reads return only written values (or ⊥ before
      any write), (2) a read succeeding [wr_k] returns [val_l] with
      [l >= k], (3) a read returning [val_k] has [wr_k] preceding or
      concurrent with it.
    - {b atomicity}: regularity plus no new-old inversion between reads
      (Lamport's characterization for single-writer registers); requires
      distinct write values to identify which write a read observed. *)

type 'v violation = {
  read : 'v Op.t;
  rule : string;  (** which clause failed *)
  detail : string;  (** human-readable explanation *)
}

val check_safety : equal:('v -> 'v -> bool) -> 'v Op.t list -> 'v violation list

val check_regularity :
  equal:('v -> 'v -> bool) -> 'v Op.t list -> 'v violation list

val check_atomicity :
  equal:('v -> 'v -> bool) -> 'v Op.t list -> 'v violation list
(** {!check_regularity}'s violations, then {!check_inversions}'.
    @raise Invalid_argument if two writes carry equal values (the
    observed-write index would be ambiguous). *)

val check_inversions :
  equal:('v -> 'v -> bool) -> 'v Op.t list -> 'v violation list
(** The new-old inversions alone: a read that observed an older write
    than a read preceding it.
    @raise Invalid_argument as {!check_atomicity}. *)

val check_wait_freedom : quiescent:bool -> 'v Op.t list -> 'v violation list
(** Wait-freedom watchdog (paper §2.2: every operation by a correct
    client eventually completes).  In a finite run the verdict is only
    meaningful once the simulator has drained its event queue: a pending
    operation with no event left that could ever complete it is a
    liveness violation.  Callers pass [quiescent = true] when the run
    ended by exhausting events (not by an event or time budget); with
    [quiescent = false] the checker abstains and returns []. *)

(** {2 A protocol's contract} *)

(** The register property a protocol claims (paper §2.2). *)
type claim = Safety | Regularity | Atomicity

val claim_name : claim -> string
(** ["safety"], ["regularity"] or ["atomicity"]. *)

type contract = {
  claim : claim;
  write_rounds : int;  (** the most rounds a write may take *)
  read_rounds : int option;  (** a read's; [None] claims no bound *)
}
(** What a protocol promises of every history it produces (Theorems 1–4
    bound the paper's storages at two rounds). *)

type 'v judgement = {
  safety : 'v violation list;
  regularity : 'v violation list;
  claimed : 'v violation list;  (** violations of the contract's claim *)
  rounds : 'v violation list;  (** complete ops past their round bound *)
  liveness : 'v violation list;  (** {!check_wait_freedom}'s *)
}

val judge :
  contract ->
  equal:('v -> 'v -> bool) ->
  quiescent:bool ->
  'v Op.t list ->
  'v judgement
(** Hold one history to a contract, each checker scanning it once; every
    runtime's verdict comes from here ([Fault.Campaign.judge] per key,
    [Mc.Explorer] per terminal state).  An op's rounds are those its
    automaton reported ({!Op.t.rounds}); an op without them is never
    past a bound.
    @raise Invalid_argument as {!check_atomicity} for an atomicity claim. *)

val is_safe : equal:('v -> 'v -> bool) -> 'v Op.t list -> bool

val is_regular : equal:('v -> 'v -> bool) -> 'v Op.t list -> bool

val is_atomic : equal:('v -> 'v -> bool) -> 'v Op.t list -> bool

val pp_violation :
  pp_value:(Format.formatter -> 'v -> unit) ->
  Format.formatter ->
  'v violation ->
  unit
