(* Tests for the Monte-Carlo schedule sampler: scenarios too large to
   exhaust still get meaningful coverage, and the sampler finds the
   known naive-fast violation quickly. *)

module ES = Mc.Explorer.Make (Core.Proto_safe)
module ER = Mc.Explorer.Make (Core.Proto_regular.Plain)
module EF = Mc.Explorer.Make (Baseline.Naive_fast)

(* The protocol's row of the table: its claim and round bounds. *)
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

let test_safe_two_writes_two_readers () =
  (* 2 writes, 2 readers x 2 reads: far beyond the exhaustive budget;
     2000 random schedules, all safe. *)
  let r =
    ES.random_walks ~walks:2000 ~contract:(contract Safe) ~seed:7
      {
        ES.cfg = Quorum.Config.optimal ~t:1 ~b:1;
        writes = [ Core.Value.v "a"; Core.Value.v "b" ];
        reads = [ (1, 2); (2, 2) ];
        sequential = false;
        byz = [];
        crashed = [];
      }
  in
  Alcotest.(check int) "all walks completed" 2000 r.terminals;
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "non-trivial walks" true (r.explored > 10_000)

(* A Byzantine regular object: every history it returns to a reader
   carries a forged complete entry <9, "ghost">. *)
let corrupt_history_acks ~src:_ m =
  let corrupt h =
    let tsval = Core.Tsval.make ~ts:9 ~v:(Core.Value.v "ghost") in
    let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
    Core.History_store.set h ~ts:9 { Core.History_store.pw = tsval; w = Some w }
  in
  match m with
  | Core.Messages.Read1_ack_h { tsr; history } ->
      [ Core.Messages.Read1_ack_h { tsr; history = corrupt history } ]
  | Core.Messages.Read2_ack_h { tsr; history } ->
      [ Core.Messages.Read2_ack_h { tsr; history = corrupt history } ]
  | m -> [ m ]

let test_regular_walks_with_byz () =
  let forge : ER.pure_byz = { rewrite = corrupt_history_acks } in
  let r =
    ER.random_walks ~walks:500 ~contract:(contract Regular) ~seed:8
      {
        ER.cfg = Quorum.Config.optimal ~t:1 ~b:1;
        writes = [ Core.Value.v "a"; Core.Value.v "b" ];
        reads = [ (1, 2) ];
        sequential = false;
        byz = [ (2, forge) ];
        crashed = [];
      }
  in
  Alcotest.(check int) "no violations" 0 (List.length r.violations)

(* ----- regular-gc at S = 2t+b+1 ------------------------------------------ *)

(* Regular-gc decides on round-1 evidence at every S.  At optimal
   resilience S = 2t+b+1 = 4 (t = b = 1) a lie must then only ever cost
   the read its round 2, never regularity or wait-freedom.  One object
   lies in each of five ways, placed at object 1 and at object S, under
   three workloads. *)
module EG = Mc.Explorer.Make (Core.Proto_regular_gc.Make (struct
  let readers = 2
end))

let cfg_optimal = Quorum.Config.optimal ~t:1 ~b:1

(* Rewrite every history the object sends a reader. *)
let on_histories f ~src:_ m =
  match m with
  | Core.Messages.Read1_ack_h { tsr; history } ->
      [ Core.Messages.Read1_ack_h { tsr; history = f history } ]
  | Core.Messages.Read2_ack_h { tsr; history } ->
      [ Core.Messages.Read2_ack_h { tsr; history = f history } ]
  | m -> [ m ]

let keep_entries p h =
  List.fold_left
    (fun acc (ts, e) -> if p ts then Core.History_store.set acc ~ts e else acc)
    Core.History_store.empty
    (Core.History_store.bindings h)

(* A complete entry for a never-written "ghost" at the first write's
   timestamp, replacing the real one. *)
let forge_at_real_ts h =
  let tsval = Core.Tsval.make ~ts:1 ~v:(Core.Value.v "ghost") in
  let w = Core.Wtuple.make ~tsval ~tsrarray:Core.Tsr_matrix.empty in
  Core.History_store.set h ~ts:1 { Core.History_store.pw = tsval; w = Some w }

let lies : (string * EG.pure_byz) list =
  [
    ("forge a high entry", { EG.rewrite = corrupt_history_acks });
    ( "forge an entry at a real timestamp",
      { EG.rewrite = on_histories forge_at_real_ts } );
    ( "hide every write",
      { EG.rewrite = on_histories (keep_entries (fun ts -> ts = 0)) } );
    ( "hide the newest entry",
      {
        EG.rewrite =
          on_histories (fun h ->
              let top = Core.History_store.max_ts h in
              keep_entries (fun ts -> ts <> top) h);
      } );
    ("stay silent", { EG.rewrite = (fun ~src:_ _ -> []) });
  ]

(* (name, writes, reads, sequential) *)
let gc_workloads =
  let a = Core.Value.v "a" and b = Core.Value.v "b" in
  [
    ("W||R", [ a; b ], [ (1, 2) ], false);
    ("W;R", [ a; b ], [ (1, 2) ], true);
    ("W||R,R", [ a ], [ (1, 1); (2, 1) ], false);
  ]

let gc_walks = 1000

let test_regular_gc_lie (lie, byz) () =
  List.iter
    (fun liar ->
      List.iter
        (fun (workload, writes, reads, sequential) ->
          let r =
            EG.random_walks ~walks:gc_walks ~contract:(contract Regular_gc)
              ~seed:liar
              {
                EG.cfg = cfg_optimal;
                writes;
                reads;
                sequential;
                byz = [ (liar, byz) ];
                crashed = [];
              }
          in
          let what = Printf.sprintf "%s at object %d, %s" lie liar workload in
          Alcotest.(check int) (what ^ ": every walk completes") gc_walks
            r.terminals;
          Alcotest.(check int) (what ^ ": no violations") 0
            (List.length r.violations))
        gc_workloads)
    [ 1; cfg_optimal.Quorum.Config.s ]

let test_sampler_finds_naive_violation () =
  let r =
    EF.random_walks ~walks:200 ~contract:(contract Naive_fast) ~seed:9
      {
        EF.cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
        writes = [ Core.Value.v "a" ];
        reads = [ (1, 1) ];
        sequential = true;
        byz = [ (1, forge_naive) ];
        crashed = [];
      }
  in
  Alcotest.(check bool) "violation sampled" true (List.length r.violations > 0)

let test_sampler_deterministic () =
  let go () =
    let r =
      ES.random_walks ~walks:50 ~contract:(contract Safe) ~seed:3
        {
          ES.cfg = Quorum.Config.optimal ~t:1 ~b:1;
          writes = [ Core.Value.v "a" ];
          reads = [ (1, 1) ];
          sequential = false;
          byz = [];
          crashed = [];
        }
    in
    r.explored
  in
  Alcotest.(check int) "same seed, same walk lengths" (go ()) (go ())

(* The claim [walks] passes is the one checked: held to abd-atomic's
   contract, ABD's regular reader returns whatever its one round saw, so
   two reads overlapping a write can see it new then old; the atomic
   reader's write-back rules that out.  The scenario is [walks]'s. *)
let atomicity_violations (module P : Core.Protocol_intf.S) =
  let module E = Mc.Explorer.Make (P) in
  let writes = [ Core.Value.v "a"; Core.Value.v "b" ] in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let reads = [ (1, 2); (2, 2) ] in
  (E.random_walks ~walks:4000 ~contract:(contract Abd_atomic) ~seed:42
     { E.cfg; writes; reads; sequential = false; byz = []; crashed = [] })
    .violations
  |> List.map (fun (v : E.violation) -> v.kind)

let test_atomicity_claim_separates_abd () =
  Alcotest.(check bool) "abd-regular inverts new-old" true
    (List.mem "atomicity(new-old inversion)"
       (atomicity_violations (module Baseline.Abd.Regular)));
  Alcotest.(check (list string)) "abd-atomic does not" []
    (atomicity_violations (module Baseline.Abd.Atomic))

let suite =
  ( "random-walks",
    [
      Alcotest.test_case "safe 2W/2R x 2 sampled" `Quick
        test_safe_two_writes_two_readers;
      Alcotest.test_case "regular with byz sampled" `Quick
        test_regular_walks_with_byz;
      Alcotest.test_case "finds naive violation" `Quick
        test_sampler_finds_naive_violation;
      Alcotest.test_case "deterministic per seed" `Quick test_sampler_deterministic;
      Alcotest.test_case "atomicity claim separates abd" `Quick
        test_atomicity_claim_separates_abd;
    ]
    @ List.map
        (fun ((lie, _) as l) ->
          Alcotest.test_case ("regular-gc at 2t+b+1: " ^ lie) `Quick
            (test_regular_gc_lie l))
        lies )
