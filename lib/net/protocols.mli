(** The protocols that can be served over the network: a
    {!Core.Protocol_intf.S} implementation packed with the {!Codec} for
    its wire message type.

    The pack is existential in the message type, so servers, clients and
    the CLI handle heterogeneous protocols through one value; they
    unpack it once at session setup.  Every pack reuses the simulator's
    protocol modules unchanged — the network runtime adds only framing,
    deadlines and retries (see DESIGN.md §10). *)

type t =
  | Packed : {
      proto : (module Core.Protocol_intf.S with type msg = 'm);
      codec : 'm Codec.t;
    }
      -> t

val name : t -> string
(** The protocol's own [P.name]. *)

val safe : t

val regular : t

val regular_opt : t

val regular_gc : readers:int -> t
(** The §5.1 cached/suffix variant ({!Core.Proto_regular_gc}) on the
    wire: readers send [Read1/Read2 { from_ts }] with their cached
    timestamp, objects answer with the history {e suffix} past it and
    garbage-collect entries below every reader's floor.  [readers] sizes
    the server-side floor set: pass the real reader count so pruning can
    engage (it only starts once every floor is known; unknown readers
    keep it conservative, never unsafe).  A read that decides on
    round-1 evidence sends no [Read2].  At [S >= 2t+2b+1] every read
    does, despite [b] lies; below it a read does unless a lie or an
    overlapping write blocks the decision, and then runs round 2
    (Proposition 1).  The codec already frames [from_ts] and suffix
    histories (wire version unchanged). *)

val abd : t

val abd_atomic : t

val all : t list

val of_string : string -> t option
(** Lookup by {!name}.  ["regular-gc"] resolves to
    [regular_gc ~readers:2] — fine for serving (floor pruning merely
    stays conservative if more readers appear); the cluster CLI rebuilds
    the pack with the real reader count. *)

(** {2 Claimed semantics} *)

type semantics = Safe | Regular | Atomic

val semantics : t -> semantics
(** The register semantics the protocol promises (paper §2.2): [safe]
    is safe; [regular], [regular-opt], [regular-gc] and [abd] are
    regular; [abd-atomic] is atomic.  This mirrors the simulator's
    {!Fault.Campaign.claims_regularity}. *)

val semantics_name : semantics -> string
(** ["safety"], ["regularity"] or ["atomicity"]. *)

val check :
  semantics -> string Histories.Op.t list -> string Histories.Checks.violation list
(** Violations of exactly the property [semantics] names, on one
    register's history.  Safe storage never promises regularity, so a
    safe run is held to safety alone. *)
