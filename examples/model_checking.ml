(* Using the bounded model checker as a library: verify your deployment
   configuration before trusting it.

   Suppose you plan to run the paper's safe storage with t = b = 1 on
   four disks.  This example (1) exhaustively checks a write-then-read
   against every message delivery order, (2) does the same with a
   Byzantine disk injected, (3) samples thousands of random schedules of
   a workload too large to exhaust, and (4) shows what the checker says
   when the deployment is misconfigured (one disk short).

   Run with: dune exec examples/model_checking.exe *)

module Check = Mc.Explorer.Make (Core.Proto_safe)

(* The safe storage's row of the protocol table: the property it claims
   and its round bounds, which every terminal history must meet. *)
let contract = Fault.Campaign.contract Safe

let forge : Check.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        let forged () =
          let tsval = Core.Tsval.make ~ts:99 ~v:(Core.Value.v "ghost") in
          (tsval, Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty)
        in
        match m with
        | Core.Messages.Read1_ack { tsr; _ } ->
            let pw, w = forged () in
            [ Core.Messages.Read1_ack { tsr; pw; w } ]
        | Core.Messages.Read2_ack { tsr; _ } ->
            let pw, w = forged () in
            [ Core.Messages.Read2_ack { tsr; pw; w } ]
        | m -> [ m ])
  }

let report name (r : Check.result) =
  Format.printf "%-42s %8d states, %d violation(s)%s@." name r.explored
    (List.length r.violations)
    (if r.truncated then " [budget hit]" else "");
  List.iteri
    (fun i (v : Check.violation) ->
      if i < 2 then Format.printf "    [%s] %s@." v.kind v.detail)
    r.violations

let () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  Format.printf "Checking deployment %a...@.@." Quorum.Config.pp cfg;

  (* 1. every delivery order of write-then-read, fault-free *)
  report "write;read, all orders"
    (Check.check ~max_states:1_000_000 ~contract
       {
         Check.cfg;
         writes = [ Core.Value.v "payload" ];
         reads = [ (1, 1) ];
         sequential = true;
         byz = [];
         crashed = [];
       });

  (* 2. a read against a forging disk, exhaustively *)
  report "read vs forging disk, all orders"
    (Check.check ~max_states:1_000_000 ~contract
       {
         Check.cfg;
         writes = [];
         reads = [ (1, 1) ];
         sequential = false;
         byz = [ (2, forge) ];
         crashed = [];
       });

  (* 3. a workload too big to exhaust: Monte-Carlo sampling *)
  report "2 writes + 4 reads, 3000 random schedules"
    (Check.random_walks ~walks:3000 ~contract ~seed:1
       {
         Check.cfg;
         writes = [ Core.Value.v "a"; Core.Value.v "b" ];
         reads = [ (1, 2); (2, 2) ];
         sequential = false;
         byz = [ (3, forge) ];
         crashed = [];
       });

  (* 4. the misconfigured deployment: same bounds, one disk crashed from
     the start PLUS a Byzantine one = two faults on a t = 1 budget *)
  Format.printf "@.Now the same storage with its fault budget exceeded:@.";
  report "read, byz + crashed disk (t=1!)"
    (Check.check ~max_states:1_000_000 ~contract
       {
         Check.cfg;
         writes = [];
         reads = [ (1, 1) ];
         sequential = false;
         byz = [ (2, forge) ];
         crashed = [ 4 ];
       });
  Format.printf
    "@.The wait-freedom violation above is the checker telling you that@.";
  Format.printf
    "this configuration cannot tolerate a second fault -- size S for the@.";
  Format.printf "fault budget you actually need (robustread info -t T -b B).@."
