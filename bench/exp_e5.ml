(* E5 -- machine-checking Theorems 1-4 on small instances: exhaustive
   delivery-order exploration (plus Byzantine reply rewriting) of tiny
   scenarios.  The safe/regular protocols must show zero violations; the
   naive fast strawman's violation must be found automatically. *)

module ES = Mc.Explorer.Make (Core.Proto_safe)
module ER = Mc.Explorer.Make (Core.Proto_regular.Plain)
module EF = Mc.Explorer.Make (Baseline.Naive_fast)
module EA = Mc.Explorer.Make (Baseline.Abd.Regular)

let cfg_core = Quorum.Config.optimal ~t:1 ~b:1

(* Each scenario is held to its protocol's row: claim and round bounds. *)
let contract = Fault.Campaign.contract

let forge_naive : EF.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        match m with
        | Baseline.Naive_fast.Read_ack { rid; ts; v = _ } ->
            [
              Baseline.Naive_fast.Read_ack
                { rid; ts = ts + 10; v = Core.Value.v "ghost" };
            ]
        | m -> [ m ]);
  }

let forge_safe : ES.pure_byz =
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

let forge_regular : ER.pure_byz =
  {
    rewrite =
      (fun ~src:_ m ->
        let corrupt h =
          let tsval = Core.Tsval.make ~ts:9 ~v:(Core.Value.v "ghost") in
          let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
          Core.History_store.set h ~ts:9
            { Core.History_store.pw = tsval; w = Some w }
        in
        match m with
        | Core.Messages.Read1_ack_h { tsr; history } ->
            [ Core.Messages.Read1_ack_h { tsr; history = corrupt history } ]
        | Core.Messages.Read2_ack_h { tsr; history } ->
            [ Core.Messages.Read2_ack_h { tsr; history = corrupt history } ]
        | m -> [ m ]);
  }

let row table name (r : 'a) ~explored ~terminals ~truncated ~violations =
  ignore r;
  Stats.Table.add_row table
    [
      name;
      Stats.Table.cell_int explored;
      Stats.Table.cell_int terminals;
      Stats.Table.cell_bool truncated;
      Stats.Table.cell_int violations;
    ]

let run () =
  Exp_common.section
    "E5: bounded model checking (Theorems 1-4 on small instances)";
  let table =
    Stats.Table.create
      ~headers:[ "scenario"; "states"; "terminals"; "truncated"; "violations" ]
  in
  let budget = 1_500_000 in

  let r =
    ES.check ~max_states:budget ~contract:(contract Safe)
      { ES.cfg = cfg_core; writes = [ Core.Value.v "a" ]; reads = [ (1, 1) ];
        sequential = true; byz = []; crashed = [] }
  in
  row table "safe: W;R sequential (all orders)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    ES.check ~max_states:budget ~contract:(contract Safe)
      { ES.cfg = cfg_core; writes = []; reads = [ (1, 1) ]; sequential = false;
        byz = [ (1, forge_safe) ]; crashed = [] }
  in
  row table "safe: R vs byz forger" r ~explored:r.explored ~terminals:r.terminals
    ~truncated:r.truncated ~violations:(List.length r.violations);

  let r =
    (* byz + crash = 2 faults needs t >= 2: S = 2t+b+1 = 6 *)
    ES.check ~max_states:budget ~contract:(contract Safe)
      { ES.cfg = Quorum.Config.optimal ~t:2 ~b:1; writes = [];
        reads = [ (1, 1) ]; sequential = false; byz = [ (2, forge_safe) ];
        crashed = [ 6 ] }
  in
  row table "safe: R vs byz + crash (t=2,b=1)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    (* the same overloaded-fault scenario the paper's model excludes:
       byz + crash with t = 1 -- the checker must catch the resulting
       wait-freedom loss, proving it can detect liveness failures *)
    ES.check ~max_states:budget ~contract:(contract Safe)
      { ES.cfg = cfg_core; writes = []; reads = [ (1, 1) ]; sequential = false;
        byz = [ (2, forge_safe) ]; crashed = [ 4 ] }
  in
  row table "safe: 2 faults, t=1 (EXPECT >0)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    ER.check ~max_states:budget ~contract:(contract Regular)
      { ER.cfg = cfg_core; writes = []; reads = [ (1, 1) ]; sequential = false;
        byz = [ (1, forge_regular) ]; crashed = [] }
  in
  row table "regular: R vs byz forger" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    ER.check ~max_states:budget ~contract:(contract Regular)
      { ER.cfg = cfg_core; writes = [ Core.Value.v "a" ]; reads = [ (1, 1) ];
        sequential = true; byz = []; crashed = [] }
  in
  row table "regular: W;R sequential (all orders)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    EA.check ~max_states:budget ~contract:(contract Abd)
      { EA.cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0;
        writes = [ Core.Value.v "a" ]; reads = [ (1, 1) ]; sequential = false;
        byz = []; crashed = [] }
  in
  row table "abd: W || R concurrent (all orders)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);

  let r =
    EF.check ~max_states:budget ~contract:(contract Naive_fast)
      { EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ]; reads = [ (1, 1) ]; sequential = true;
        byz = [ (1, forge_naive) ]; crashed = [] }
  in
  row table "naive-fast: W;R vs byz (EXPECT >0)" r ~explored:r.explored
    ~terminals:r.terminals ~truncated:r.truncated
    ~violations:(List.length r.violations);
  (match r.violations with
  | v :: _ -> Exp_common.note "  found: [%s] %s" v.kind v.detail
  | [] -> ());

  Exp_common.print_table table;
  Exp_common.note
    "Expected shape: zero violations except the two EXPECT rows: the";
  Exp_common.note
    "naive-fast safety violation and the wait-freedom loss when the fault";
  Exp_common.note
    "budget is exceeded -- both discovered by the checker without being";
  Exp_common.note "given the adversarial schedule."
