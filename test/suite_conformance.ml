(* Protocol conformance: generic laws every protocol of the table must
   satisfy, checked uniformly across the whole protocol zoo.

   Laws (fault-free runs at each protocol's configurations):
   - the run passes its table entry's judge: every scheduled operation
     completes, writes and reads stay within the entry's round bounds,
     and the history has the property the entry claims;
   - the history is safe, and regular where the entry claims regularity
     or more;
   - determinism: identical (seed, schedule) gives identical histories;
   - serial reads after a write return that write's value.

   Two fault-free expectations go beyond what the table claims: nonmod's
   polling reader, which claims no round bound, finishes in 3 rounds,
   and the naive fast reader, doomed under Byzantine faults, is
   regular. *)

let specs =
  let open Fault.Campaign in
  let optimal = Quorum.Config.optimal and make = Quorum.Config.make_exn in
  [
    (Safe, [ optimal ~t:1 ~b:1; optimal ~t:2 ~b:2 ]);
    (Regular, [ optimal ~t:1 ~b:1 ]);
    (Regular_opt, [ optimal ~t:2 ~b:1 ]);
    (Regular_gc, [ optimal ~t:1 ~b:1 ]);
    (Abd, [ make ~s:3 ~t:1 ~b:0 ]);
    (Abd_atomic, [ make ~s:5 ~t:2 ~b:0 ]);
    (Nonmod, [ optimal ~t:1 ~b:1 ]);
    (Auth, [ optimal ~t:1 ~b:1 ]);
    (Fast_safe, [ make ~s:5 ~t:1 ~b:1 ]);
    (Naive_fast, [ make ~s:4 ~t:1 ~b:1 ]);
  ]
  |> List.concat_map (fun (p, cfgs) ->
         List.mapi
           (fun i (cfg : Quorum.Config.t) ->
             let name =
               protocol_name p
               ^ (if i = 0 then "" else Printf.sprintf "(t=%d,b=%d)" cfg.t cfg.b)
               ^ if robust p then "" else " (fault-free only)"
             in
             (name, p, cfg))
           cfgs)

let schedule =
  [
    (0, Core.Schedule.Write (Core.Value.v "c1"));
    (100, Core.Schedule.Read { reader = 1 });
    (150, Core.Schedule.Read { reader = 2 });
    (200, Core.Schedule.Write (Core.Value.v "c2"));
    (300, Core.Schedule.Read { reader = 1 });
    (320, Core.Schedule.Read { reader = 2 });
    (400, Core.Schedule.Write (Core.Value.v "c3"));
    (500, Core.Schedule.Read { reader = 2 });
  ]

let run_spec (_, p, cfg) ~seed =
  let (Fault.Campaign.Entry { automata = (module P); _ }) =
    Fault.Campaign.entry p
  in
  let module Sc = Core.Scenario.Make (P) in
  let rep =
    Sc.run ~cfg ~seed ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10) schedule
  in
  ( Fault.Campaign.judge p ~quiescent:rep.quiescent
      ~completed:(Complete.count rep.history) ~total:(List.length schedule)
      [ (0, rep.history) ],
    rep.history )

let test_laws ((name, p, _) as spec) () =
  let v, history = run_spec spec ~seed:5 in
  Alcotest.(check int)
    (name ^ ": all operations complete")
    (List.length schedule) v.completed;
  Alcotest.(check int) (name ^ ": no wait-freedom violation") 0 v.liveness;
  Alcotest.(check int) (name ^ ": round bounds") 0 v.rounds;
  List.iter
    (fun (op : string Histories.Op.t) ->
      let rounds = Option.get op.rounds in
      match op.action with
      | Write _ ->
          Alcotest.(check bool) (name ^ ": write takes a round") true (rounds >= 1)
      | Read { result; _ } ->
          if p = Fault.Campaign.Nonmod then
            Alcotest.(check bool)
              (name ^ ": fault-free read in 3 rounds")
              true (rounds <= 3);
          Alcotest.(check bool) (name ^ ": read has a result") true
            (result <> None))
    (Histories.Op.completed history);
  Alcotest.(check int) (name ^ ": history safe") 0 v.safety;
  Alcotest.(check int)
    (name ^ ": claimed property")
    0
    (List.length v.violations);
  if Fault.Campaign.((contract p).claim <> Safety || p = Naive_fast) then
    Alcotest.(check int) (name ^ ": history regular") 0 v.regularity

let test_determinism ((name, _, _) as spec) () =
  Alcotest.(check bool)
    (name ^ ": deterministic")
    true
    (run_spec spec ~seed:9 = run_spec spec ~seed:9)

let test_serial_read_sees_write ((name, _, _) as spec) () =
  let _, history = run_spec spec ~seed:11 in
  (* the final read at t=500 follows the completed c3 write *)
  match List.rev (Histories.Op.completed history) with
  | { action = Read { result = Some v; _ }; _ } :: _ ->
      Alcotest.(check bool)
        (name ^ ": last read sees last write")
        true
        (v = Histories.Op.Value "c3")
  | _ -> Alcotest.fail (name ^ ": last operation should be a completed read")

let suite =
  ( "conformance",
    List.concat_map
      (fun ((name, _, _) as spec) ->
        [
          Alcotest.test_case (name ^ " laws") `Quick (test_laws spec);
          Alcotest.test_case (name ^ " determinism") `Quick
            (test_determinism spec);
          Alcotest.test_case (name ^ " serial read") `Quick
            (test_serial_read_sees_write spec);
        ])
      specs )
