(* The round driver stepped by hand: scripted replies, connection losses
   and ticks, no sockets and no clock.  The host below records every
   message the driver sends; the objects are ABD's, stepped only when a
   case delivers their reply. *)

module D = Core.Driver
module P = Baseline.Abd.Regular

type sent = { slot : int; msg : Baseline.Abd.msg }

type harness = {
  d : (Baseline.Abd.msg, P.reader, P.writer) D.t;
  sent : sent list ref;  (* newest first *)
  up : bool array;
  unanswered : int array;
  events : D.event list ref;  (* newest first *)
  objs : P.obj array;
}

let harness ?timing ?fanout ?map ?metrics
    ?(proto : (Baseline.Abd.msg, P.reader, P.writer) D.protocol = (module P))
    cfg =
  let map = Option.value map ~default:(Shard.Map.single cfg) in
  let fleet = Shard.Map.fleet map in
  let sent = ref [] and events = ref [] and spans = ref 0 in
  let up = Array.make fleet true and unanswered = Array.make fleet 0 in
  let host =
    {
      D.send =
        (fun ~slot ~key:_ ~sender:_ msg ->
          if up.(slot) then begin
            sent := { slot; msg } :: !sent;
            unanswered.(slot) <- unanswered.(slot) + 1
          end);
      connected = (fun slot -> up.(slot));
      unanswered = (fun slot -> unanswered.(slot));
      answers = Baseline.Abd.answers;
      start_span =
        (fun kind ~proc ~now ->
          let id = !spans in
          incr spans;
          Obs.Span.create ~id kind ~proc ~now ~trace_pos:0);
      trace_pos = (fun () -> 0);
    }
  in
  let fanout = Option.value fanout ~default:(Quorum.Config.quorum cfg) in
  let d = D.create ?metrics ?timing proto ~host ~map ~fanout ~reader:1 ~readers:1 in
  D.load d [||] ~on_event:(fun e -> events := e :: !events);
  let objs = Array.init fleet (fun i -> P.obj_init ~cfg ~index:(i + 1)) in
  { d; sent; up; unanswered; events; objs }

let submit h ~now op =
  D.submit h.d op;
  D.pump h.d ~now

(* Slots sent to since [mark] sends ago, oldest first. *)
let sends_since h mark =
  let fresh = List.length !(h.sent) - mark in
  List.rev (List.filteri (fun i _ -> i < fresh) !(h.sent))

(* Object [slot] handles the last message sent to it; its reply reaches
   the reader lane.  Returns the reply. *)
let reply h ~now ~key ~lane slot =
  let m = (List.find (fun s -> s.slot = slot) !(h.sent)).msg in
  let src = if lane = D.writer then Sim.Proc_id.Writer else Reader 1 in
  let o, r = P.obj_handle h.objs.(slot) ~src m in
  h.objs.(slot) <- o;
  let r = Option.get r in
  h.unanswered.(slot) <- 0;
  D.deliver h.d ~now ~slot ~key ~lane r;
  D.pump h.d ~now;
  r

let drop h slot =
  h.up.(slot) <- false;
  D.lost h.d ~slot

let responses h =
  List.filter_map
    (function
      | D.Respond { op; outcome; _ } -> Some (op, outcome) | D.Invoke _ -> None)
    (List.rev !(h.events))

let slots l = List.map (fun s -> s.slot) l

let ints = Alcotest.(list int)

let cfg41 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

(* At fan-out S a fresh round goes to every member, in rank order,
   whatever the unanswered counts: the simulator's broadcast to objects
   1..S. *)
let test_fanout_s () =
  let h = harness ~fanout:4 cfg41 in
  h.unanswered.(0) <- 7;
  h.unanswered.(2) <- 3;
  submit h ~now:0 (D.Read { key = 0 });
  Alcotest.check ints "single register: slots 0..3" [ 0; 1; 2; 3 ]
    (slots (sends_since h 0));
  let map = Shard.Map.make_exn ~keys:64 ~fleet:5 ~cfg:cfg41 () in
  let key =
    List.find (fun k -> Shard.Map.shard_of_key map k = 2) (List.init 64 Fun.id)
  in
  let h = harness ~fanout:4 ~map cfg41 in
  h.unanswered.(2) <- 5;
  h.unanswered.(4) <- 1;
  submit h ~now:0 (D.Read { key });
  Alcotest.check ints "shard 2: its members in rank order" [ 2; 3; 4; 0 ]
    (slots (sends_since h 0));
  Alcotest.(check bool)
    "one message" true
    (List.for_all (fun s -> s.msg = (List.hd !(h.sent)).msg) !(h.sent))

(* A late reply to the previous op (here a duplicate of one it already
   counted) does not answer the current round, so when that member's
   connection drops, the round still widens to the member it skipped. *)
let test_late_reply () =
  let h = harness cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  Alcotest.check ints "quorum-sized round" [ 0; 1; 2 ]
    (slots (sends_since h 0));
  let late = reply h ~now:1 ~key:0 ~lane:0 0 in
  ignore (reply h ~now:2 ~key:0 ~lane:0 1);
  ignore (reply h ~now:3 ~key:0 ~lane:0 2);
  Alcotest.(check int) "first read done" 1 (List.length (responses h));
  let mark = List.length !(h.sent) in
  submit h ~now:10 (D.Read { key = 0 });
  Alcotest.check ints "second read's round" [ 0; 1; 2 ]
    (slots (sends_since h mark));
  let mark = List.length !(h.sent) in
  D.deliver h.d ~now:11 ~slot:0 ~key:0 ~lane:0 late;
  drop h 0;
  Alcotest.check ints "widened to the skipped member" [ 3 ]
    (slots (sends_since h mark));
  Alcotest.(check bool)
    "with the current message" true
    ((List.hd !(h.sent)).msg = Baseline.Abd.Read_req { rid = 2 })

(* A dropped contacted member widens the round to every member it
   skipped. *)
let test_widen_lost () =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:2 ~b:0 in
  let h = harness cfg in
  submit h ~now:0 (D.Write { key = 0; value = Core.Value.v "a" });
  Alcotest.check ints "quorum-sized round" [ 0; 1; 2 ]
    (slots (sends_since h 0));
  ignore (reply h ~now:1 ~key:0 ~lane:D.writer 0);
  drop h 1;
  Alcotest.check ints "both skipped members" [ 0; 1; 2; 3; 4 ]
    (slots (sends_since h 0));
  ignore (reply h ~now:2 ~key:0 ~lane:D.writer 3);
  ignore (reply h ~now:3 ~key:0 ~lane:D.writer 4);
  match responses h with
  | [ (0, Ok { D.rounds = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "the write completes on objects 1, 4 and 5"

(* Once every contacted member has answered and the reader is still
   undecided, the round widens to the members it skipped inside the
   delivery of the last answer, with no tick: here the reader ignores
   its first reply, so three answers leave it one short. *)
let test_widen_undecided () =
  let module Deaf = struct
    include P

    let deaf = ref true

    let reader_on_msg r ~obj m =
      if !deaf then begin
        deaf := false;
        (r, [])
      end
      else P.reader_on_msg r ~obj m
  end in
  let metrics = Obs.Metrics.create () in
  let h = harness ~metrics ~proto:(module Deaf) cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  Alcotest.check ints "quorum-sized round" [ 0; 1; 2 ]
    (slots (sends_since h 0));
  ignore (reply h ~now:1 ~key:0 ~lane:0 0);
  ignore (reply h ~now:2 ~key:0 ~lane:0 1);
  let mark = List.length !(h.sent) in
  ignore (reply h ~now:3 ~key:0 ~lane:0 2);
  Alcotest.check ints "the last answer widens to the skipped member" [ 3 ]
    (slots (sends_since h mark));
  Alcotest.(check int)
    "counted as undecided" 1
    (Obs.Metrics.counter_value metrics "op.expand.undecided");
  Alcotest.(check int) "still undecided" 0 (List.length (responses h));
  ignore (reply h ~now:4 ~key:0 ~lane:0 3);
  match responses h with
  | [ (0, Ok { D.value = Some _; _ }) ] -> ()
  | _ -> Alcotest.fail "the read decides on the skipped member's reply"

(* An op that times out parks its round; the next op on the lane resumes
   it by resending the parked message to every member, and completes on
   their replies. *)
let test_park_resume () =
  let timing = { D.deadline = 100e-6; retries = 0; backoff = 10e-6 } in
  let h = harness ~timing cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  let first = (List.hd !(h.sent)).msg in
  Alcotest.(check int) "deadline" 100 (D.next_wakeup h.d);
  D.tick h.d ~now:99;
  Alcotest.(check int) "not yet" 0 (List.length (responses h));
  D.tick h.d ~now:100;
  (match responses h with
  | [ (0, Error _) ] -> ()
  | _ -> Alcotest.fail "the read times out");
  Alcotest.(check int) "nothing in flight" max_int (D.next_wakeup h.d);
  let mark = List.length !(h.sent) in
  submit h ~now:200 (D.Read { key = 0 });
  let resumed = sends_since h mark in
  Alcotest.check ints "resent to every member" [ 0; 1; 2; 3 ] (slots resumed);
  Alcotest.(check bool)
    "the parked message" true
    (List.for_all (fun s -> s.msg = first) resumed);
  List.iter
    (fun slot -> ignore (reply h ~now:201 ~key:0 ~lane:0 slot))
    [ 1; 2; 3 ];
  match responses h with
  | [ (0, Error _); (1, Ok { D.value = Some _; _ }) ] -> ()
  | _ -> Alcotest.fail "the resuming read completes"

(* Replies that complete a parked round stash its result, and the next
   op on the lane adopts it without sending anything. *)
let test_park_adopt () =
  let timing = { D.deadline = 100e-6; retries = 0; backoff = 10e-6 } in
  let h = harness ~timing cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  D.tick h.d ~now:100;
  List.iter
    (fun slot -> ignore (reply h ~now:150 ~key:0 ~lane:0 slot))
    [ 0; 1; 2 ];
  Alcotest.(check int) "one response so far" 1 (List.length (responses h));
  let mark = List.length !(h.sent) in
  submit h ~now:200 (D.Read { key = 0 });
  Alcotest.check ints "nothing sent" [] (slots (sends_since h mark));
  match responses h with
  | [ (0, Error _); (1, Ok { D.value = Some _; rounds = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "the next read adopts the stashed result"

(* The span a timed-out op hands out in its [Respond] is its round's:
   when a later op resumes the parked round, or adopts its stashed
   result, that same span finishes with the automaton's round count, so
   [Campaign.judge] holds the round to the protocol's bound.  The op
   that resumed or adopted carries no span of its own. *)
let test_parked_round_span () =
  let timing = { D.deadline = 100e-6; retries = 0; backoff = 10e-6 } in
  let spans h =
    List.filter_map
      (function
        | D.Respond { op; span; _ } -> Some (op, span) | D.Invoke _ -> None)
      (List.rev !(h.events))
  in
  let judged what h =
    match spans h with
    | [ (0, Some s); (1, None) ] ->
        Alcotest.(check (option int))
          (what ^ ": the timed-out op's span reports the round")
          (Some 1) s.Obs.Span.reported_rounds;
        Alcotest.(check bool)
          (what ^ ": and is finished") true (Obs.Span.completed s)
    | _ -> Alcotest.failf "%s: op 0 hands out a span, op 1 none" what
  in
  (* resumed: the next op resends the parked round, which completes *)
  let h = harness ~timing cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  D.tick h.d ~now:100;
  (match spans h with
  | [ (0, Some s) ] ->
      Alcotest.(check bool) "open while parked" false (Obs.Span.completed s)
  | _ -> Alcotest.fail "the timed-out read hands out its span");
  submit h ~now:200 (D.Read { key = 0 });
  List.iter
    (fun slot -> ignore (reply h ~now:201 ~key:0 ~lane:0 slot))
    [ 1; 2; 3 ];
  judged "resumed" h;
  (* adopted: replies complete the parked round before the next op *)
  let h = harness ~timing cfg41 in
  submit h ~now:0 (D.Read { key = 0 });
  D.tick h.d ~now:100;
  List.iter
    (fun slot -> ignore (reply h ~now:150 ~key:0 ~lane:0 slot))
    [ 0; 1; 2 ];
  submit h ~now:200 (D.Read { key = 0 });
  judged "adopted" h

let suite =
  ( "driver",
    [
      Alcotest.test_case "a fresh round at fan-out S reaches every member"
        `Quick test_fanout_s;
      Alcotest.test_case "a late reply to the previous op does not answer"
        `Quick test_late_reply;
      Alcotest.test_case "a lost member widens to every skipped member"
        `Quick test_widen_lost;
      Alcotest.test_case "a timed-out round parks and the next op resumes"
        `Quick test_park_resume;
      Alcotest.test_case "a parked round's result is adopted by the next op"
        `Quick test_park_adopt;
      Alcotest.test_case "resumed and adopted rounds report on the first span"
        `Quick test_parked_round_span;
      Alcotest.test_case "an undecided round widens when all contacted answer"
        `Quick test_widen_undecided;
    ] )
