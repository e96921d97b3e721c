(* The object host stepped by hand: keys made on first contact, the
   reply cache, restarts and Byzantine behaviours, with no socket and no
   engine.  The objects are Figure 3's, which answer only a fresh
   timestamp; the requests come from the protocol's own writer and
   reader automata. *)

module H = Core.Object_host
module M = Core.Messages
module P = Core.Proto_safe

let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1

(* The simulator's [answers]: no reply answers a request. *)
let never ~request:_ _ = false

let host ?(answers = M.answers) () = H.create (module P) ~answers ~cfg ~index:1

let writer = Sim.Proc_id.Writer

let ok = function Ok x -> x | Error e -> Alcotest.fail e

(* The writer's round-1 PW for its first write, of [v]. *)
let pw v = snd (ok (P.writer_start (P.writer_init ~cfg) (Core.Value.v v)))

(* Reader [j]'s round-1 READ1, with reader timestamp 1. *)
let read1 j = snd (ok (P.reader_start (P.reader_init ~cfg ~j)))

let handle h ~key src m = H.handle h ~key ~src ~now:0 m

(* The timestamp of the pre-written pair a READ1 reply carries; [None]
   when there is no reply. *)
let seen h ~key j =
  match handle h ~key (Sim.Proc_id.Reader j) (read1 j) with
  | [ (dst, M.Read1_ack { pw; _ }) ] ->
      Alcotest.(check bool) "the reply goes to the reader" true
        (Sim.Proc_id.equal dst (Reader j));
      Some pw.Core.Tsval.ts
  | [] -> None
  | _ -> Alcotest.fail "expected at most one READ1_ACK"

let check_seen what expected h ~key j =
  Alcotest.(check (option int)) what expected (seen h ~key j)

let keys_on_first_contact () =
  let h = host () in
  ignore (handle h ~key:0 writer (pw "a"));
  check_seen "key 0 holds the write" (Some 1) h ~key:0 1;
  check_seen "key 1 starts fresh" (Some 0) h ~key:1 1;
  ignore (handle h ~key:1 writer (pw "b"));
  check_seen "key 0 is untouched by key 1" (Some 1) h ~key:0 2

let retransmit_gets_the_last_reply () =
  let h = host () in
  let r1 = Sim.Proc_id.Reader 1 in
  let first = handle h ~key:0 r1 (read1 1) in
  ignore (handle h ~key:0 writer (pw "a"));
  let again = handle h ~key:0 r1 (read1 1) in
  Alcotest.(check int) "the retransmit is answered" 1 (List.length again);
  Alcotest.(check bool) "with the very reply sent before, not a step" true
    (List.for_all2 (fun (_, a) (_, b) -> a == b) first again);
  check_seen "a fresh reader sees the write" (Some 1) h ~key:0 2

let duplicate_unanswered_in_the_simulator () =
  let h = host ~answers:never () in
  check_seen "the request is answered" (Some 0) h ~key:0 1;
  check_seen "its duplicate is not" None h ~key:0 1

let restart_keeps_or_wipes () =
  let h = host () in
  let mute = { Core.Byz.handle = (fun ~src:_ ~now:_ _ -> []) } in
  ignore (handle h ~key:0 writer (pw "a"));
  H.byzantine h mute;
  check_seen "a mute object answers nothing" None h ~key:0 1;
  H.restart h ~wipe:false;
  check_seen "a kept restart is honest and keeps the write" (Some 1) h ~key:0 2;
  H.byzantine h mute;
  H.restart h ~wipe:true;
  check_seen "a wiped restart is honest and forgets it" (Some 0) h ~key:0 2

let byzantine_answers_every_key () =
  let h = host () in
  let lie ~src ~now _ = [ (src, M.W_ack { ts = now }) ] in
  H.byzantine h { Core.Byz.handle = lie };
  let lied key =
    match H.handle h ~key ~src:writer ~now:(100 + key) (pw "a") with
    | [ (_, M.W_ack { ts }) ] -> ts = 100 + key
    | _ -> false
  in
  Alcotest.(check bool) "key 0 gets the lie, at its time" true (lied 0);
  Alcotest.(check bool) "so does a key never seen" true (lied 7);
  H.restart h ~wipe:false;
  check_seen "after a restart the object is honest" (Some 0) h ~key:7 1

let suite =
  ( "object-host",
    [
      Alcotest.test_case "a key is made on first contact, keys are independent"
        `Quick keys_on_first_contact;
      Alcotest.test_case "a retransmit gets the last reply without a step"
        `Quick retransmit_gets_the_last_reply;
      Alcotest.test_case "with the simulator's answers a duplicate is unanswered"
        `Quick duplicate_unanswered_in_the_simulator;
      Alcotest.test_case "a restart keeps or wipes state and ends a behaviour"
        `Quick restart_keeps_or_wipes;
      Alcotest.test_case "a Byzantine behaviour answers every key until a restart"
        `Quick byzantine_answers_every_key;
    ] )
