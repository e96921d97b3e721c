(** Declarative, time-scripted fault plans.

    A plan is a protocol-independent list of fault actions over virtual
    time: crashes, crash-recoveries (wiped or persisted state), transient
    link outages and partitions, message duplication windows, and
    (symbolic) Byzantine behaviours including mid-run strategy switches.
    Plans are plain data: they can be generated randomly from a PRNG
    (deterministic per seed), validated against a resilience budget,
    pretty-printed as a reproducible witness, and shrunk by
    {!Shrink.minimize}.  {!Campaign} maps each action to one
    {!Core.Scenario.Make.fault}, resolving the symbolic Byzantine kinds
    to each protocol's concrete strategies. *)

type proc = W | R of int | O of int  (** writer, reader [j], object [i] *)

val proc_id : proc -> Sim.Proc_id.t

val proc_to_string : proc -> string

(** Symbolic Byzantine behaviours, resolved per protocol by the campaign
    (e.g. [Forge] is {!Strategies.forge_high_value} against the safe
    protocol but {!Strategies.forge_history} against the regular one). *)
type byz_kind =
  | Mute
  | Forge
  | Replay
  | Simulate
  | Defame
      (** slander correct objects to the reader ({!Strategies.defame});
          only the CLI's [--attack] picks it — {!gen} never draws it *)
  | Garbage
  | Flaky of { down_from : int; down_until : int }
      (** {!Strategies.crash_recovery}-style: honest, silent for the
          window, resumes stale *)

val kind_to_string : byz_kind -> string

type action =
  | Byz of { obj : int; kind : byz_kind }  (** Byzantine from the start *)
  | Switch of { obj : int; at : int; kind : byz_kind }
      (** turns Byzantine mid-run *)
  | Crash of { obj : int; at : int }
  | Recover of { obj : int; at : int; wipe : bool }
      (** restart; [wipe] = lose persisted state *)
  | Block of { src : proc; dst : proc; from_ : int; until : int }
  | Isolate of { obj : int; from_ : int; until : int }
  | Duplicate of { src : proc; dst : proc; copies : int; from_ : int; until : int }

type t = { horizon : int; actions : action list }

val empty : horizon:int -> t

val length : t -> int

val action_to_string : action -> string

val to_compact : t -> string
(** One-line rendering, the form failure witnesses are printed in. *)

val pp : Format.formatter -> t -> unit

val byzantine_objects : t -> Set.Make(Int).t
(** Objects whose behaviour may deviate arbitrarily: [Byz], [Switch],
    and wiped recoveries (forgetting acknowledged writes is not a crash
    fault). *)

val faulty_objects : t -> Set.Make(Int).t
(** {!byzantine_objects} plus every crashed object — even recovered
    ones, since they lost messages while down. *)

val well_formed : cfg:Quorum.Config.t -> t -> bool
(** Object indices in range, windows ordered and inside the horizon. *)

val within_budget : cfg:Quorum.Config.t -> t -> bool
(** [well_formed], at most [b] Byzantine objects and at most [t] faulty
    objects: the regime in which the paper's Theorems 1–4 promise safety
    and wait-freedom. *)

(** {2 Random generation} *)

type budget = { horizon : int; max_actions : int }

val small : budget

val medium : budget

val large : budget

val budget_of_string : string -> budget option
(** Recognizes ["small"], ["medium"], ["large"]. *)

val gen : rng:Sim.Prng.t -> cfg:Quorum.Config.t -> budget:budget -> t
(** Draw a random plan: a faulty cast of at most [t] objects (at most
    [b] of them Byzantine — wiped recoveries count as Byzantine) plus
    transient network chaos (blocks, partitions, duplication) on
    arbitrary links.  Always {!within_budget} for [cfg]; deterministic
    in the PRNG state. *)
