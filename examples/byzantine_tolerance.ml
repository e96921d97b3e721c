(* Byzantine tolerance in practice: a storage array built from commodity
   disks where one disk has been compromised and lies to clients.

   We run the same workload twice:
   - on the paper's safe storage (S = 4, t = b = 1), where the compromised
     disk mounts increasingly nasty attacks and every read still returns a
     legitimate value within two round-trips;
   - on a naive "trust the freshest reply" protocol, where the same single
     compromised disk makes a reader return data that was never written.

   Run with: dune exec examples/byzantine_tolerance.exe *)

module Robust = Core.Scenario.Make (Core.Proto_safe)
module Naive = Core.Scenario.Make (Baseline.Naive_fast)

let schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "ledger-v1"));
    (100, Core.Schedule.Read { reader = 1 });
    (200, Core.Schedule.Write (Core.Value.v "ledger-v2"));
    (300, Core.Schedule.Read { reader = 1 });
    (310, Core.Schedule.Read { reader = 2 });
    (400, Core.Schedule.Write (Core.Value.v "ledger-v3"));
    (500, Core.Schedule.Read { reader = 2 });
  ]

(* The value and rounds of every read that returned, in the order they
   returned. *)
let reads history =
  let pp_result = Histories.Op.pp_result ~pp_value:Format.pp_print_string in
  List.filter_map
    (fun (op : string Histories.Op.t) ->
      match op.action with
      | Read { result; _ } ->
          Some (Format.asprintf "%a" pp_result result, Option.get op.rounds)
      | Write _ -> None)
    (Histories.Op.completed history)

let describe name history =
  let equal = String.equal in
  let violations = Histories.Checks.check_safety ~equal history in
  let reads = reads history in
  Format.printf "@.%s:@." name;
  List.iter (fun (v, r) -> Format.printf "  read -> %-12s (%d rounds)@." v r) reads;
  if violations = [] then Format.printf "  safety: OK@."
  else
    List.iter
      (fun v ->
        Format.printf "  SAFETY VIOLATION: %a@."
          (Histories.Checks.pp_violation ~pp_value:Format.pp_print_string)
          v)
      violations

let () =
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let delay = Sim.Delay.uniform ~lo:1 ~hi:10 in

  Format.printf
    "One compromised disk (s2) out of %d; it forges fresh-looking data.@."
    cfg.Quorum.Config.s;

  (* The robust storage under a menu of attacks from the compromised disk. *)
  List.iter
    (fun (attack_name, strategy) ->
      let report =
        Robust.run ~cfg ~seed:21 ~delay
          ~faults:[ Robust.Byzantine { obj = 2; factory = strategy } ]
          schedule
      in
      describe
        (Printf.sprintf "robust storage vs %s" attack_name)
        report.history)
    [
      ("forged high timestamps", Fault.Strategies.forge_high_value ~value:"FAKE" ~ts_boost:10);
      ("replayed initial state", Fault.Strategies.replay_initial);
      ("fabricated write", Fault.Strategies.simulate_unwritten_write ~value:"GHOST" ~ts:9);
      ("random garbage", Fault.Strategies.random_garbage);
    ];

  (* The naive protocol against the mildest of those attacks. *)
  let report =
    Naive.run ~cfg:(Quorum.Config.make_exn ~s:4 ~t:1 ~b:1) ~seed:21 ~delay
      ~faults:
        [
          Naive.Byzantine
            {
              obj = 2;
              factory =
                Baseline.Naive_fast.byz_forge_high ~value:"FAKE" ~ts_boost:10;
            };
        ]
      schedule
  in
  let equal = String.equal in
  let violations = Histories.Checks.check_safety ~equal report.history in
  Format.printf "@.naive 1-round protocol vs forged high timestamps:@.";
  List.iter
    (fun (v, _) -> Format.printf "  read -> %-12s@." v)
    (reads report.history);
  Format.printf "  safety violations: %d (the lower bound made flesh)@."
    (List.length violations)
