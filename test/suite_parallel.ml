(* The parallel execution layer must be invisible: same bytes out of a
   campaign, a span export, or a metrics registry whatever the domain
   count.  These tests pin the pool's ordering and failure semantics,
   then check end-to-end determinism of the consumers that fan out
   through it, and the registry-merge algebra that makes the per-domain
   reduction sound. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ----- pool semantics ---------------------------------------------------- *)

let test_pool_order () =
  Alcotest.(check (array int))
    "init returns input-index order"
    (Array.init 257 (fun i -> i * i))
    (Exec.Pool.init ~jobs:4 257 (fun i -> i * i));
  Alcotest.(check (list int))
    "map preserves list order"
    (List.init 100 (fun i -> i + 1))
    (Exec.Pool.map ~jobs:3 (fun x -> x + 1) (List.init 100 Fun.id));
  Alcotest.(check (array int))
    "tiny chunks still cover everything"
    (Array.init 50 Fun.id)
    (Exec.Pool.init ~jobs:4 ~chunk:1 50 Fun.id)

let test_pool_edges () =
  Alcotest.(check (array int)) "n = 0" [||] (Exec.Pool.init ~jobs:4 0 Fun.id);
  Alcotest.(check (list int)) "empty map" [] (Exec.Pool.map ~jobs:2 Fun.id []);
  Alcotest.(check (array int))
    "jobs way beyond n" (Array.init 5 Fun.id)
    (Exec.Pool.init ~jobs:64 5 Fun.id);
  Alcotest.(check (array int))
    "jobs = 0 clamps to serial" (Array.init 5 Fun.id)
    (Exec.Pool.init ~jobs:0 5 Fun.id)

let test_pool_exception () =
  Alcotest.check_raises "the failing index's exception is re-raised"
    (Failure "boom 37") (fun () ->
      ignore
        (Exec.Pool.init ~jobs:4 100 (fun i ->
             if i = 37 then failwith "boom 37" else i)))

(* The runner that starts client domains off one barrier: one client
   runs on the calling domain, as [init ~jobs:1] does; k clients run on
   k distinct domains, and results come back in client order. *)
let test_timed_domains () =
  let id () = (Domain.self () :> int) in
  let on_domain k =
    Array.map snd (Exec.Pool.timed k (fun c () -> (c, id ())))
  in
  Alcotest.(check (array (pair int int)))
    "one client runs on the calling domain" [| (0, id ()) |] (on_domain 1);
  let three = on_domain 3 in
  Alcotest.(check (array int)) "results in client order" [| 0; 1; 2 |]
    (Array.map fst three);
  Alcotest.(check int) "client 0 on the calling domain" (id ()) (snd three.(0));
  let domains = Array.to_list (Array.map snd three) in
  Alcotest.(check int) "three distinct domains" 3
    (List.length (List.sort_uniq compare domains))

(* ----- campaign determinism ---------------------------------------------- *)

(* Every observable byte of a campaign result. *)
let fingerprint cells =
  String.concat ""
    (Stats.Table.to_string (Fault.Campaign.matrix_table cells)
     :: Stats.Table.to_string (Fault.Campaign.metrics_table cells)
     :: List.map
          (fun (c : Fault.Campaign.cell) ->
            Obs.Export.metrics_jsonl
              ~labels:
                [ ("protocol", Fault.Campaign.protocol_name c.protocol) ]
              c.metrics)
          cells)

let qcheck_campaign_jobs_invisible =
  QCheck.Test.make
    ~name:"campaign sweep: jobs=1 and jobs=4 byte-identical" ~count:4
    QCheck.(int_range 0 50)
    (fun k ->
      let sweep jobs =
        Fault.Campaign.sweep ~jobs ~budget:Fault.Plan.small ~plans_per_seed:2
          ~protocols:[ Fault.Campaign.Safe; Fault.Campaign.Regular ]
          ~t:1 ~b:1
          ~seeds:[ k + 1; k + 2 ]
          ()
      in
      String.equal (fingerprint (sweep 1)) (fingerprint (sweep 4)))

(* ----- span export determinism ------------------------------------------- *)

let spans_via_pool ~jobs =
  let module Sc = Core.Scenario.Make (Core.Proto_safe) in
  let cfg = Quorum.Config.optimal ~t:1 ~b:1 in
  let one seed =
    let rng = Sim.Prng.create ~seed in
    let schedule =
      Workload.Generate.read_mostly ~rng ~writes:2 ~readers:2
        ~reads_per_reader:3 ~horizon:1_500
    in
    let rep =
      Sc.run ~cfg ~seed
        ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10)
        ~faults:{ Sc.crashes = []; byzantine = [] }
        schedule
    in
    Obs.Export.spans_jsonl rep.spans
  in
  String.concat "" (Exec.Pool.map ~jobs one (List.init 6 (fun i -> i + 1)))

let test_span_jsonl_determinism () =
  Alcotest.(check string)
    "span JSONL bytes independent of jobs" (spans_via_pool ~jobs:1)
    (spans_via_pool ~jobs:4)

(* ----- registry merge algebra under concurrent producers ----------------- *)

let qcheck_merge_associative =
  QCheck.Test.make
    ~name:"registry merge associative/commutative over domain producers"
    ~count:10
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let produce k () =
        let reg = Obs.Metrics.create () in
        let h =
          Obs.Metrics.histogram reg "h" ~bounds:Obs.Metrics.count_bounds
        in
        let rng = Sim.Prng.create ~seed:(seed + k) in
        for _ = 1 to 200 do
          let n = Sim.Prng.int rng ~bound:5 in
          Obs.Metrics.incr reg (Printf.sprintf "c%d" n);
          Obs.Metrics.histogram_observe_int h n
        done;
        reg
      in
      (* four registries filled concurrently on their own domains *)
      let regs =
        List.init 4 (fun k -> Domain.spawn (produce k))
        |> List.map Domain.join
      in
      let render reg =
        Stats.Table.to_string (Obs.Metrics.table reg)
        ^ Obs.Export.metrics_jsonl reg
      in
      let sequential =
        let dst = Obs.Metrics.create () in
        List.iter (fun r -> Obs.Metrics.merge_into ~dst r) regs;
        render dst
      in
      let tree =
        match regs with
        | [ a; b; c; d ] ->
            let left = Obs.Metrics.create ()
            and right = Obs.Metrics.create () in
            Obs.Metrics.merge_into ~dst:left d;
            Obs.Metrics.merge_into ~dst:left c;
            Obs.Metrics.merge_into ~dst:right b;
            Obs.Metrics.merge_into ~dst:right a;
            let dst = Obs.Metrics.create () in
            Obs.Metrics.merge_into ~dst right;
            Obs.Metrics.merge_into ~dst left;
            render dst
        | _ -> assert false
      in
      String.equal sequential tree)

(* ----- structured cell errors -------------------------------------------- *)

let test_cell_error_contained () =
  let cfg = Fault.Campaign.default_cfg Fault.Campaign.Safe ~t:1 ~b:1 in
  (* Flaky with an inverted window makes Strategies.crash_recovery raise
     inside the run — exactly the class of abort the sweep must survive. *)
  let bad =
    {
      Fault.Plan.horizon = 800;
      actions =
        [
          Fault.Plan.Byz
            { obj = 1; kind = Fault.Plan.Flaky { down_from = 500; down_until = 100 } };
        ];
    }
  in
  (match Fault.Campaign.run_plan_result Fault.Campaign.Safe ~cfg ~seed:3 bad with
  | Error e ->
      Alcotest.(check int) "seed recorded" 3 e.Fault.Campaign.seed;
      Alcotest.(check bool) "plan recorded" true (e.Fault.Campaign.plan == bad);
      Alcotest.(check bool) "error names the cause" true
        (contains ~sub:"empty window" e.Fault.Campaign.error)
  | Ok _ -> Alcotest.fail "inverted Flaky window should abort the run");
  match
    Fault.Campaign.run_plan_result Fault.Campaign.Safe ~cfg ~seed:3
      (Fault.Plan.empty ~horizon:800)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean plan errored: %s" e.Fault.Campaign.error

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool preserves input order" `Quick test_pool_order;
      Alcotest.test_case "pool edge cases" `Quick test_pool_edges;
      Alcotest.test_case "pool re-raises worker exception" `Quick
        test_pool_exception;
      QCheck_alcotest.to_alcotest qcheck_campaign_jobs_invisible;
      Alcotest.test_case "span JSONL independent of jobs" `Quick
        test_span_jsonl_determinism;
      QCheck_alcotest.to_alcotest qcheck_merge_associative;
      Alcotest.test_case "cell errors contained, not fatal" `Quick
        test_cell_error_contained;
      Alcotest.test_case "timed: one client runs on the calling domain"
        `Quick test_timed_domains;
    ] )
