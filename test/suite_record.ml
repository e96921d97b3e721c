(* Core.Record: round-driver events to per-key histories.  Every case
   feeds synthetic driver events, so no sockets or simulator are
   involved and the stamps are exact. *)

open Core.Driver_ops

let equal = String.equal

let outcome ?(rounds = 1) value =
  Ok { value; rounds; retransmits = 0; latency_us = 0 }

let read_ok ?rounds v = outcome ?rounds (Some (Core.Value.v v))

let read_bottom = outcome (Some Core.Value.Bottom)

let write_ok = outcome None

let inv ?(joined = false) ~op ~reader at_us =
  Invoke { op; key = 0; write = reader = 0; reader; joined; at_us }

let resp ?(joined = false) ~op ~reader at_us outcome =
  Respond
    { op; key = 0; write = reader = 0; reader; joined; at_us; outcome; span = None }

(* One client's log: the events of one run of [ops]. *)
let feed r ops events =
  List.iter (Core.Record.event (Core.Record.log r) (Array.get ops)) events

let write_a = [| Write { key = 0; value = Core.Value.v "a" } |]

(* The writer's log: WRITE(a) over [inv_at, resp_at]. *)
let writer r ~inv_at ~resp_at =
  feed r write_a
    [ inv ~op:0 ~reader:0 inv_at; resp ~op:0 ~reader:0 resp_at write_ok ]

let key0 r =
  match Core.Record.histories r with
  | [ (0, h) ] -> h
  | hs ->
      Alcotest.failf "expected one key-0 history, got %d keys" (List.length hs)

let safety h = List.length (Histories.Checks.check_safety ~equal h)

let regularity h = List.length (Histories.Checks.check_regularity ~equal h)

let writer_and_reader_logs_merge () =
  let run result =
    let r = Core.Record.create () in
    writer r ~inv_at:10 ~resp_at:20;
    feed r
      [| Read { key = 0 } |]
      [ inv ~op:0 ~reader:1 30; resp ~op:0 ~reader:1 40 result ];
    key0 r
  in
  let h = run (read_ok "a") in
  Alcotest.(check int) "both ops recorded" 2 (List.length h);
  Alcotest.(check bool) "write precedes read" true
    (Histories.Op.precedes (List.nth h 0) (List.nth h 1));
  Alcotest.(check int) "safe" 0 (safety h);
  Alcotest.(check int) "regular" 0 (regularity h);
  let bad = run (read_ok "never-written") in
  Alcotest.(check int) "safety flags it" 1 (safety bad);
  Alcotest.(check int) "regularity flags it" 1 (regularity bad)

(* Equal stamps in different logs: the invocation goes first, so the
   read is concurrent with the write and may still return bottom. *)
let tie_is_concurrent () =
  let r = Core.Record.create () in
  writer r ~inv_at:10 ~resp_at:20;
  feed r
    [| Read { key = 0 } |]
    [ inv ~op:0 ~reader:1 20; resp ~op:0 ~reader:1 25 read_bottom ];
  let h = key0 r in
  Alcotest.(check bool) "concurrent" true
    (Histories.Op.concurrent (List.nth h 0) (List.nth h 1));
  Alcotest.(check int) "bottom is safe" 0 (safety h);
  Alcotest.(check int) "bottom is regular" 0 (regularity h);
  (* The same events in one log keep their order, ties included: the
     write responds before the read is invoked, so it precedes the read
     and the bottom read is a safety violation.  The simulator records
     every process into one log and relies on this. *)
  let r = Core.Record.create () in
  feed r
    [| write_a.(0); Read { key = 0 } |]
    [
      inv ~op:0 ~reader:0 10;
      resp ~op:0 ~reader:0 20 write_ok;
      inv ~op:1 ~reader:1 20;
      resp ~op:1 ~reader:1 25 read_bottom;
    ];
  let h = key0 r in
  Alcotest.(check bool) "one log: the write precedes the read" true
    (Histories.Op.precedes (List.nth h 0) (List.nth h 1));
  Alcotest.(check int) "one log: bottom is unsafe" 1 (safety h);
  (* The tied invocation sits behind a response of its own log at the
     same stamp: that response goes first, then the invocation, then the
     other log's response. *)
  let r = Core.Record.create () in
  writer r ~inv_at:10 ~resp_at:20;
  feed r
    [| Read { key = 0 }; Read { key = 0 } |]
    [
      inv ~op:0 ~reader:1 5;
      resp ~op:0 ~reader:1 20 read_bottom;
      inv ~op:1 ~reader:1 20;
      resp ~op:1 ~reader:1 25 read_bottom;
    ];
  let h = key0 r in
  Alcotest.(check int) "three ops" 3 (List.length h);
  Alcotest.(check int) "both bottoms safe" 0 (safety h)

(* A lead read times out (its automaton parks); the next read on the
   same lane resumes it, and its response, with the rounds it reports,
   completes the original invocation. *)
let resumed_op_responds_to_original () =
  let r = Core.Record.create () in
  feed r
    [| Read { key = 0 }; Read { key = 0 } |]
    [
      inv ~op:0 ~reader:1 10;
      resp ~op:0 ~reader:1 20 (Error "timeout");
      inv ~op:1 ~reader:1 30;
      resp ~op:1 ~reader:1 40 (outcome ~rounds:2 (Some Core.Value.Bottom));
    ];
  match key0 r with
  | [ op ] ->
      Alcotest.(check int) "invoked at the lead's invocation" 10 op.invoked_at;
      Alcotest.(check (option int)) "responded at the resumer's response"
        (Some 40) op.responded_at;
      Alcotest.(check bool) "complete" true (Histories.Op.is_complete op);
      Alcotest.(check (option int)) "the resumer's rounds" (Some 2) op.rounds
  | h -> Alcotest.failf "expected one op, got %d" (List.length h)

let unresumed_failure_is_not_wait_free () =
  let r = Core.Record.create () in
  writer r ~inv_at:0 ~resp_at:5;
  feed r
    [| Read { key = 0 } |]
    [ inv ~op:0 ~reader:1 10; resp ~op:0 ~reader:1 20 (Error "timeout") ];
  let h = key0 r in
  Alcotest.(check int) "the read stays incomplete" 1
    (List.length (List.filter (fun op -> not (Histories.Op.is_complete op)) h));
  Alcotest.(check int) "wait-freedom flags it" 1
    (List.length (Histories.Checks.check_wait_freedom ~quiescent:true h))

(* A read joins the round its lead is assembling: both are invoked
   before either responds, so they are concurrent reads, and the joined
   one needs a reader id of its own. *)
let joined_read_is_a_concurrent_reader () =
  let r = Core.Record.create () in
  writer r ~inv_at:0 ~resp_at:5;
  feed r
    [| Read { key = 0 }; Read { key = 0 } |]
    [
      inv ~op:0 ~reader:1 10;
      inv ~joined:true ~op:1 ~reader:1 11;
      resp ~op:0 ~reader:1 20 (read_ok ~rounds:2 "a");
      resp ~joined:true ~op:1 ~reader:1 20 (read_ok ~rounds:3 "a");
    ];
  let h = key0 r in
  let readers =
    List.filter_map
      (fun (op : string Histories.Op.t) ->
        match op.action with
        | Read { reader; _ } -> Some (reader, op)
        | Write _ -> None)
      h
  in
  match readers with
  | [ (j1, lead); (j2, joiner) ] ->
      Alcotest.(check bool) "distinct reader ids" true (j1 <> j2);
      Alcotest.(check bool) "concurrent" true
        (Histories.Op.concurrent lead joiner);
      Alcotest.(check bool) "both complete" true
        (Histories.Op.is_complete lead && Histories.Op.is_complete joiner);
      Alcotest.(check (pair (option int) (option int)))
        "each carries its own response's rounds" (Some 2, Some 3)
        (lead.rounds, joiner.rounds);
      Alcotest.(check int) "regular" 0 (regularity h)
  | _ -> Alcotest.failf "expected two reads, got %d" (List.length readers)

(* ----- the property each protocol claims ---------------------------------- *)

(* One table says what each protocol claims (paper §2.2), and every
   wire pack is its table entry's, so a live run and a simulated one
   are held to the same property. *)
let claims_come_from_the_table () =
  let expected = function
    | "safe" | "nonmod" | "fast-safe" | "naive-fast" -> "safety"
    | "abd-atomic" -> "atomicity"
    | _ -> "regularity"
  in
  List.iter
    (fun p ->
      let name = Fault.Campaign.protocol_name p in
      Alcotest.(check string)
        (name ^ " claims")
        (expected name)
        (Histories.Checks.claim_name (Fault.Campaign.contract p).claim);
      Alcotest.(check bool)
        (name ^ " is found by its name")
        true
        (Fault.Campaign.protocol_of_string name = Some p);
      Option.iter
        (fun pack ->
          Alcotest.(check string) (name ^ " pack") name (Net.Protocols.name pack))
        (Net.Live.protocol_of p))
    Fault.Campaign.protocols;
  List.iter
    (fun pack ->
      Alcotest.(check bool)
        (Net.Protocols.name pack ^ " has a table entry")
        true
        (Fault.Campaign.protocol_of_string (Net.Protocols.name pack) <> None))
    (List.filter_map Net.Live.protocol_of Fault.Campaign.protocols)

(* The writer's log: one write per value, each over its interval. *)
let writes r spans =
  let ops =
    Array.of_list
      (List.map (fun (v, _, _) -> Write { key = 0; value = Core.Value.v v }) spans)
  in
  feed r ops
    (List.concat
       (List.mapi
          (fun op (_, inv_at, resp_at) ->
            [ inv ~op ~reader:0 inv_at; resp ~op ~reader:0 resp_at write_ok ])
          spans))

let reads r ~reader spans =
  feed r
    (Array.of_list (List.map (fun _ -> Read { key = 0 }) spans))
    (List.concat
       (List.mapi
          (fun op (v, inv_at, resp_at) ->
            [ inv ~op ~reader inv_at; resp ~op ~reader resp_at (read_ok v) ])
          spans))

let claimed h claim =
  let c = { (Fault.Campaign.contract Safe) with claim } in
  List.length
    (Histories.Checks.judge c ~equal:String.equal ~quiescent:true h).claimed

(* A read overlapping WRITE(c) returns a, older than the completed
   WRITE(b): safe storage allows any value under a concurrent write,
   regular storage only b or c. *)
let old_value_under_a_write_is_safe_not_regular () =
  let r = Core.Record.create () in
  writes r [ ("a", 10, 20); ("b", 30, 40); ("c", 50, 80) ];
  reads r ~reader:1 [ ("a", 60, 70) ];
  let h = key0 r in
  Alcotest.(check int) "safe" 0 (claimed h Fault.Campaign.Safety);
  Alcotest.(check int) "not regular" 1 (claimed h Fault.Campaign.Regularity)

(* Two reads overlap WRITE(b); the first returns b, the later one the
   older a.  Each is regular on its own, but the pair inverts. *)
let new_old_inversion_is_regular_not_atomic () =
  let r = Core.Record.create () in
  writes r [ ("a", 10, 20); ("b", 30, 100) ];
  reads r ~reader:1 [ ("b", 40, 50) ];
  reads r ~reader:2 [ ("a", 60, 70) ];
  let h = key0 r in
  Alcotest.(check int) "regular" 0 (claimed h Fault.Campaign.Regularity);
  Alcotest.(check bool) "not atomic" true (claimed h Fault.Campaign.Atomicity > 0)

let suite =
  ( "record",
    [
      Alcotest.test_case "writer and reader logs merge into one history" `Quick
        writer_and_reader_logs_merge;
      Alcotest.test_case "a stamp tie across logs is concurrency" `Quick
        tie_is_concurrent;
      Alcotest.test_case "a resumed op responds to the original invocation"
        `Quick resumed_op_responds_to_original;
      Alcotest.test_case "an op never resumed is not wait-free" `Quick
        unresumed_failure_is_not_wait_free;
      Alcotest.test_case "a joined read is a concurrent reader" `Quick
        joined_read_is_a_concurrent_reader;
      Alcotest.test_case "claims come from the one protocol table" `Quick
        claims_come_from_the_table;
      Alcotest.test_case "an old value under a write is safe, not regular"
        `Quick old_value_under_a_write_is_safe_not_regular;
      Alcotest.test_case "a new-old inversion is regular, not atomic" `Quick
        new_old_inversion_is_regular_not_atomic;
    ] )
