(* Quickstart: emulate a robust single-writer register over 4 simulated
   base objects (t = 1 failure, of which b = 1 may be Byzantine — the
   optimal S = 2t+b+1 = 4), write twice, read three times, and check the
   resulting history against the paper's safety and regularity
   definitions.

   Run with: dune exec examples/quickstart.exe *)

module Storage = Core.Scenario.Make (Core.Proto_safe)

let () =
  (* 1. Pick the failure bounds; the library computes optimal resilience. *)
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  Format.printf "deploying %a (optimal resilience)@." Quorum.Config.pp cfg;

  (* 2. Describe a workload: times are virtual; one writer, two readers. *)
  let schedule =
    [
      (0, Core.Schedule.Write (Core.Value.v "hello"));
      (100, Core.Schedule.Read { reader = 1 });
      (200, Core.Schedule.Write (Core.Value.v "world"));
      (300, Core.Schedule.Read { reader = 1 });
      (300, Core.Schedule.Read { reader = 2 });
    ]
  in

  (* 3. Run it on a network with random message delays. *)
  let report =
    Storage.run ~cfg ~seed:7 ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10) schedule
  in

  (* 4. Inspect the completed operations of the recorded history, in the
     order they responded. *)
  List.iter
    (fun (op : string Histories.Op.t) ->
      let rounds = Option.get op.rounds in
      match op.action with
      | Write { value; _ } ->
          Format.printf "write %-8s took %d rounds, %d time units@." value
            rounds (Histories.Op.latency op)
      | Read { reader; result } ->
          Format.printf "read by r%d returned %-8s (%d round%s)@." reader
            (Format.asprintf "%a"
               (Histories.Op.pp_result ~pp_value:Format.pp_print_string)
               result)
            rounds
            (if rounds = 1 then "" else "s"))
    (Histories.Op.completed report.history);

  (* 5. Check the history against the paper's correctness definitions. *)
  let equal = String.equal in
  Format.printf "history is safe:    %b@."
    (Histories.Checks.is_safe ~equal report.history);
  Format.printf "history is regular: %b@."
    (Histories.Checks.is_regular ~equal report.history)
