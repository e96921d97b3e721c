(* E8 -- the resilience/round-complexity threshold, swept over S.

   The paper (with its ref. [1]) locates a sharp threshold at
   S = 2t+2b+1: below it, safe storage needs 2-round operations; at or
   above it, single-round reads and writes suffice.  We sweep S for
   t = b = 1 and report, per protocol:

   - whether the Proposition 1 construction (run at S' = 2t+2b) breaks
     it (a fixed property of the protocol, shown once), and
   - empirically, at each deployed S: rounds used and whether an
     exhaustive model check of write-then-read finds violations. *)

module LB_fast = Mc.Lower_bound.Make (Baseline.Fast_safe)
module E_fast = Mc.Explorer.Make (Baseline.Fast_safe)
module E_safe = Mc.Explorer.Make (Core.Proto_safe)

let replay_initial : E_fast.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        match m with
        | Baseline.Fast_safe.Read_ack { rid; _ } ->
            [ Baseline.Fast_safe.Read_ack { rid; ts = 0; v = Core.Value.bottom } ]
        | m -> [ m ]);
  }

let forge_safe : E_safe.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        let pair () =
          let tsval = Core.Tsval.make ~ts:9 ~v:(Core.Value.v "ghost") in
          (tsval, Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty)
        in
        match m with
        | Core.Messages.Read1_ack { tsr; _ } ->
            let pw, w = pair () in
            [ Core.Messages.Read1_ack { tsr; pw; w } ]
        | Core.Messages.Read2_ack { tsr; _ } ->
            let pw, w = pair () in
            [ Core.Messages.Read2_ack { tsr; pw; w } ]
        | m -> [ m ]);
  }

let run () =
  Exp_common.section "E8: the S = 2t+2b+1 threshold (t = b = 1)";
  Exp_common.note
    "Model-check 1 write ; 1 read (all delivery orders, byz replay/forge)";
  Exp_common.note "per deployed S, for the 1-round and the 2-round protocol:";
  let table =
    Stats.Table.create
      ~headers:
        [
          "S"; "regime"; "fast-safe (1-rnd): violations"; "states";
          "safe (2-rnd): violations"; "states";
        ]
  in
  List.iter
    (fun s ->
      let cfg = Quorum.Config.make_exn ~s ~t:1 ~b:1 in
      let regime =
        if s < Quorum.Config.optimal_s ~t:1 ~b:1 then "below resilience bound"
        else if not (Quorum.Config.fast_read_admissible cfg) then
          "2 rounds necessary"
        else "1 round sufficient"
      in
      let r_fast =
        E_fast.check ~max_states:1_000_000
          ~contract:(Fault.Campaign.contract Fast_safe)
          {
            E_fast.cfg = cfg;
            writes = [ Core.Value.v "v1" ];
            reads = [ (1, 1) ];
            sequential = true;
            byz = [ (1, replay_initial) ];
            crashed = [];
          }
      in
      let r_safe =
        E_safe.check ~max_states:1_000_000
          ~contract:(Fault.Campaign.contract Safe)
          {
            E_safe.cfg = cfg;
            writes = [];
            reads = [ (1, 1) ];
            sequential = false;
            byz = [ (1, forge_safe) ];
            crashed = [];
          }
      in
      Stats.Table.add_row table
        [
          Stats.Table.cell_int s;
          regime;
          Stats.Table.cell_int (List.length r_fast.violations);
          Stats.Table.cell_int r_fast.explored;
          Stats.Table.cell_int (List.length r_safe.violations);
          Stats.Table.cell_int r_safe.explored;
        ])
    [ 4; 5; 6 ];
  Exp_common.print_table table;

  Exp_common.note "";
  Exp_common.note
    "Proposition 1 construction applied to the 1-round protocol at S = 2t+2b:";
  let o = LB_fast.analyse ~t:1 ~b:1 ~value:(Core.Value.v "v1") in
  List.iter (fun l -> Printf.printf "  %s\n" l) o.transcript;
  Exp_common.note "";
  Exp_common.note
    "Expected shape: the 1-round fast-safe protocol is broken at S = 4 =";
  Exp_common.note
    "2t+2b (both by the proof construction and by exhaustive checking) and";
  Exp_common.note
    "clean at S >= 5 = 2t+2b+1; the 2-round safe protocol is clean";
  Exp_common.note "everywhere -- the threshold is exactly where the paper puts it."
