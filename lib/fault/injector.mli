(** Backend-agnostic fault injection.

    A {!Plan} is pure data; an {e injector} is what turns its actions
    into faults somewhere — chaos events inside the simulator, or
    process kills and socket-level interference against a live cluster.
    [S] is the capability surface a backend must provide: one entry
    point per {!Plan.action} constructor, each taking the action's
    fields.  {!apply} walks a plan in action order and dispatches every
    action through the given implementation, so the {e same} plan value
    drives either backend unchanged — the property the cross-backend
    campaigns and the live-to-sim witness replay rest on.

    Implementations are free to be eager (the sim backend accumulates
    scenario chaos events for a later deterministic run) or scheduled
    (the live backend compiles actions into wall-clock timers and
    rule windows its servers apply); [apply] itself never sleeps. *)

module type S = sig
  type t
  (** Backend context the actions are staged into. *)

  val name : string
  (** Short backend tag, e.g. ["sim"] or ["live"]. *)

  val byzantine : t -> obj:int -> kind:Plan.byz_kind -> unit
  (** Object [obj] behaves Byzantine (symbolic [kind]) from the start. *)

  val switch : t -> obj:int -> at:int -> kind:Plan.byz_kind -> unit
  (** Object [obj] turns Byzantine at virtual time [at]. *)

  val crash : t -> obj:int -> at:int -> unit

  val recover : t -> obj:int -> at:int -> wipe:bool -> unit
  (** Restart a crashed object; [wipe] discards its persisted state. *)

  val block :
    t -> src:Plan.proc -> dst:Plan.proc -> from_:int -> until:int -> unit
  (** Drop messages on the directed link [src -> dst] for the window. *)

  val isolate : t -> obj:int -> from_:int -> until:int -> unit
  (** Partition [obj] from everyone for the window. *)

  val duplicate :
    t ->
    src:Plan.proc ->
    dst:Plan.proc ->
    copies:int ->
    from_:int ->
    until:int ->
    unit
  (** Deliver [copies] extra copies of each [src -> dst] message. *)
end

val apply : (module S with type t = 'a) -> 'a -> Plan.t -> unit
(** Dispatch every action of the plan, in plan order, through the
    implementation.  Total: any action a well-formed plan can contain
    maps to exactly one [S] call. *)
