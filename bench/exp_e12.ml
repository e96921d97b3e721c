(* E12 -- chaos campaign survival matrix: random within-budget fault
   plans (crashes, crash-recoveries, partitions, duplication, mid-run
   Byzantine switches) swept over every protocol.

   The paper's claims take the shape "for every execution with at most t
   faults, b Byzantine": this experiment samples that quantifier.  The
   robust protocols must survive all plans; naive-fast at S = 2t+2b is
   the Proposition 1 negative control, and its first failing plan is
   delta-debugged down to the minimal witness — invariably a single
   forging object. *)

let run () =
  Exp_common.section
    "E12: chaos campaign survival matrix (20 seeds x 3 plans, medium budget)";
  let seeds = List.init 20 (fun i -> i + 1) in
  let cells =
    Fault.Campaign.sweep ?jobs:!Exp_common.jobs ~budget:Fault.Plan.medium
      ~plans_per_seed:3 ~protocols:Fault.Campaign.campaign_protocols ~t:1 ~b:1
      ~seeds ()
  in
  Exp_common.print_table (Fault.Campaign.matrix_table cells);
  List.iter
    (fun (c : Fault.Campaign.cell) ->
      match c.failures with
      | [] -> ()
      | (seed, plan) :: _ ->
          let repro =
            Fault.Campaign.violates c.protocol ~cfg:c.cfg ~seed
          in
          let o = Fault.Shrink.minimize ~repro plan in
          Exp_common.note "%s: first failing plan (seed %d, %d actions) shrinks to:"
            (Fault.Campaign.protocol_name c.protocol)
            seed (Fault.Plan.length plan);
          Exp_common.note "  %s   [%d candidate runs]"
            (Fault.Plan.to_compact o.Fault.Shrink.plan)
            o.Fault.Shrink.attempts)
    cells;
  Exp_common.note
    "Expected shape: every robust protocol survives every within-budget";
  Exp_common.note
    "plan (safety and wait-freedom; regularity where claimed); naive-fast";
  Exp_common.note
    "at S = 2t+2b breaks on a large fraction of plans, and each failure";
  Exp_common.note
    "shrinks to a single Byzantine forgery — Proposition 1's adversary."
