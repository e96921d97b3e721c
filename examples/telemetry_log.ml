(* A realistic deployment scenario: a sensor gateway (the single writer)
   publishes telemetry snapshots into a rack of 7 storage bricks
   (t = 2 may fail, b = 1 of those arbitrarily), while two dashboards
   (readers) poll continuously.

   Uses the regular storage with the S5.1 optimization: dashboards cache
   the last returned snapshot's timestamp, so bricks ship only history
   suffixes — we print how much reply traffic that saves over the
   unoptimized protocol.  Midway, one brick crashes and another starts
   lying; nobody downstream notices.

   Run with: dune exec examples/telemetry_log.exe *)

module Plain = Core.Scenario.Make (Core.Proto_regular.Plain)
module Opt = Core.Scenario.Make (Core.Proto_regular.Optimized)

let snapshots = 20

let schedule seed =
  let rng = Sim.Prng.create ~seed in
  let writes =
    List.init snapshots (fun i ->
        ( i * 50,
          Core.Schedule.Write
            (Core.Value.v (Printf.sprintf "snapshot-%03d" (i + 1))) ))
  in
  let dashboards =
    Workload.Generate.poisson_reads ~rng ~readers:2 ~mean_gap:30.0
      ~horizon:(snapshots * 50)
  in
  Core.Schedule.merge writes dashboards

let forger = Fault.Strategies.forge_history ~value:"corrupted" ~ts_boost:5

let faults_plain =
  Plain.
    [
      Crash { proc = Sim.Proc_id.Obj 6; at = 400 };
      Byzantine { obj = 3; factory = forger };
    ]

let faults_opt =
  Opt.
    [
      Crash { proc = Sim.Proc_id.Obj 6; at = 400 };
      Byzantine { obj = 3; factory = forger };
    ]

let () =
  let cfg = Quorum.Config.optimal ~t:2 ~b:1 in
  let delay = Sim.Delay.exponential ~mean:4.0 in
  Format.printf
    "Telemetry rack: %d bricks, tolerating %d failures (%d Byzantine).@."
    cfg.Quorum.Config.s cfg.Quorum.Config.t cfg.Quorum.Config.b;
  Format.printf "Brick s6 crashes at t=400; brick s3 forges history entries.@.";

  let rep_opt = Opt.run ~cfg ~seed:99 ~delay ~faults:faults_opt (schedule 99) in
  let rep_plain =
    Plain.run ~cfg ~seed:99 ~delay ~faults:faults_plain (schedule 99)
  in

  let pp_result = Histories.Op.pp_result ~pp_value:Format.pp_print_string in
  let reads =
    List.filter_map
      (fun (op : string Histories.Op.t) ->
        match op.action with
        | Read { reader; result } ->
            let v = Format.asprintf "%a" pp_result result in
            Some (op.invoked_at, reader, v, Option.get op.rounds)
        | Write _ -> None)
      (Histories.Op.completed rep_opt.history)
  in
  Format.printf "@.%d dashboard reads; a sample:@." (List.length reads);
  List.iteri
    (fun i (at, reader, v, rounds) ->
      if i mod 7 = 0 then
        Format.printf "  [%5d] dashboard %d sees %-14s (%d round%s)@." at reader
          v rounds
          (if rounds = 1 then "" else "s"))
    reads;

  let equal = String.equal in
  Format.printf "@.regularity holds: %b (every read returns a real snapshot,@."
    (Histories.Checks.is_regular ~equal rep_opt.history);
  Format.printf "never older than the last one finished before it)@.";

  Format.printf "@.reply traffic to dashboards:@.";
  Format.printf "  unoptimized full-history protocol : %7d words@."
    rep_plain.words_to_readers;
  Format.printf "  S5.1 cached/suffix protocol       : %7d words (%.1fx less)@."
    rep_opt.words_to_readers
    (float_of_int rep_plain.words_to_readers
    /. float_of_int (max 1 rep_opt.words_to_readers))
