(** Bounded model checker: exhaustive exploration of delivery orders.

    For a small scenario (a few operations over a handful of objects)
    the checker enumerates {e every} order in which the in-transit
    messages can be delivered — the full space of asynchronous runs of
    §2.1 for that workload — executing the protocol's pure state
    machines along each branch.  At every quiescent endpoint it replays
    the run's operations through {!Histories.Recorder}, each response
    with the rounds its automaton reported, and checks:

    - the history against the protocol's contract
      ({!Histories.Checks.judge}, as [Fault.Campaign.judge] does): the
      claimed property (safety, regularity or atomicity), and each
      operation's rounds against the contract's bounds;
    - {e wait-freedom}: with all messages delivered and at most [t]
      silenced objects, every scheduled operation must have been
      invoked and completed.

    Byzantine objects are modelled as pure reply-rewriting strategies
    over an internally-honest automaton, so exploration stays
    deterministic and states stay comparable.  States are memoized on a
    structural fingerprint; the state budget bounds the search and
    [truncated] reports whether it was exhausted.

    This machine-checks Theorems 1-4 on small instances (E5) and finds
    the lower-bound violation on the naive fast protocol without being
    told the adversary schedule. *)

module Make (P : Core.Protocol_intf.S) : sig
  type pure_byz = {
    rewrite : src:Sim.Proc_id.t -> P.msg -> P.msg list;
        (** maps each honest reply to the messages actually sent back to
            [src] (empty = stay silent) *)
  }

  type scenario = {
    cfg : Quorum.Config.t;
    writes : Core.Value.t list;  (** performed in order by the writer *)
    reads : (int * int) list;  (** (reader index, number of READs) *)
    sequential : bool;
        (** readers start only once every write has completed — the
            regime in which safety actually constrains the return value *)
    byz : (int * pure_byz) list;  (** object index, behaviour *)
    crashed : int list;  (** objects silent from the start *)
  }

  type violation = { kind : string; detail : string }

  type result = {
    explored : int;  (** distinct states visited *)
    terminals : int;  (** quiescent endpoints checked *)
    truncated : bool;  (** state budget exhausted before exhaustion *)
    violations : violation list;  (** deduplicated, first few *)
  }

  val check :
    ?max_states:int -> contract:Histories.Checks.contract -> scenario -> result
  (** Explore the scenario (default budget 200_000 states) and hold
      every terminal history to [contract]; a violation's [kind] is the
      checker's rule (["rounds"] for a round bound).  The search is
      exhaustive only when the result is not [truncated]. *)

  val random_walks :
    ?jobs:int ->
    ?walks:int ->
    contract:Histories.Checks.contract ->
    seed:int ->
    scenario ->
    result
  (** Monte-Carlo complement to {!check} for scenarios too large to
      exhaust: sample [walks] (default 1000) uniformly random delivery
      orders end-to-end and check every terminal history.  [explored]
      counts delivery steps, [terminals] completed walks; [truncated] is
      always false.  Sound for bug-finding, not for verification.

      Each walk follows its own PRNG split off the seed stream, so the
      result is a pure function of [(scenario, seed, walks)]; [jobs]
      (default {!Exec.Pool.recommended_jobs}) only sets how many domains
      the batch fans across, never what it samples. *)
end
