(** Counterexample shrinking for failing fault plans.

    Given a plan on which a repro predicate (typically
    {!Campaign.violates} at a fixed protocol, configuration and seed)
    holds, [minimize] delta-debugs it: actions are removed one at a time
    to a 1-minimal subset, then the survivors' parameters are simplified
    (windows halved, duplication reduced, mid-run switches promoted to
    start-of-run Byzantine, wiped recoveries demoted to persisted) —
    accepting each candidate only if the violation still reproduces.
    Because runs are deterministic in (seed, plan), the result is a
    minimal witness that replays exactly. *)

type outcome = {
  plan : Plan.t;  (** the minimized plan; still satisfies [repro] *)
  attempts : int;  (** candidate plans tried *)
  reproductions : int;  (** candidates that still violated *)
}

val minimize : repro:(Plan.t -> bool) -> Plan.t -> outcome
(** [minimize ~repro plan] shrinks [plan] while [repro] keeps holding,
    calling [repro] at most 500 times.
    @raise Invalid_argument if [repro plan] is already false. *)
