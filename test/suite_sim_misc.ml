(* Tests for process ids, delay models and traces. *)

open Sim

let test_proc_id_compare () =
  Alcotest.(check bool) "writer < reader" true
    (Proc_id.compare Proc_id.Writer (Proc_id.Reader 1) < 0);
  Alcotest.(check bool) "reader < object" true
    (Proc_id.compare (Proc_id.Reader 9) (Proc_id.Obj 1) < 0);
  Alcotest.(check bool) "object index order" true
    (Proc_id.compare (Proc_id.Obj 1) (Proc_id.Obj 2) < 0);
  Alcotest.(check bool) "equal" true (Proc_id.equal (Proc_id.Obj 3) (Proc_id.Obj 3))

let test_proc_id_strings () =
  Alcotest.(check string) "writer" "w" (Proc_id.to_string Proc_id.Writer);
  Alcotest.(check string) "reader" "r2" (Proc_id.to_string (Proc_id.Reader 2));
  Alcotest.(check string) "object" "s5" (Proc_id.to_string (Proc_id.Obj 5));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Proc_id.of_string s = None))
    [ ""; "r0"; "r"; "x1"; "r1x"; "r01"; "writer"; "4611686018427387904";
      "r4611686018427387904"; "s99999999999999999999" ];
  Alcotest.(check bool) "max_int id accepted" true
    (Proc_id.of_string ("r" ^ string_of_int max_int)
    = Some (Proc_id.Reader max_int))

let proc_id_of_string_inverts =
  QCheck.Test.make ~name:"proc_id of_string inverts to_string" ~count:500
    QCheck.(
      make ~print:Proc_id.to_string
        Gen.(
          let id = oneof [ int_range 1 1000; int_range 1 max_int ] in
          oneof
            [
              return Proc_id.Writer;
              map (fun j -> Proc_id.Reader j) id;
              map (fun i -> Proc_id.Obj i) id;
            ]))
    (fun p -> Proc_id.of_string (Proc_id.to_string p) = Some p)

let test_proc_id_sets () =
  Alcotest.(check int) "objects ~s" 4 (List.length (Proc_id.objects ~s:4));
  Alcotest.(check int) "readers ~r" 3 (List.length (Proc_id.readers ~r:3));
  Alcotest.(check bool) "objects are objects" true
    (List.for_all Proc_id.is_object (Proc_id.objects ~s:4));
  Alcotest.(check bool) "readers are clients" true
    (List.for_all Proc_id.is_client (Proc_id.readers ~r:3))

let test_proc_id_indices () =
  Alcotest.(check int) "obj_index" 7 (Proc_id.obj_index (Proc_id.Obj 7));
  Alcotest.(check int) "reader_index" 2 (Proc_id.reader_index (Proc_id.Reader 2));
  Alcotest.check_raises "obj_index of writer"
    (Invalid_argument "Proc_id.obj_index: w") (fun () ->
      ignore (Proc_id.obj_index Proc_id.Writer))

let sample_many model ~n =
  let rng = Prng.create ~seed:77 in
  List.init n (fun _ ->
      Delay.sample model ~rng ~src:Proc_id.Writer ~dst:(Proc_id.Obj 1) ~now:0)

let test_delay_constant () =
  Alcotest.(check (list int)) "always 4" [ 4; 4; 4 ]
    (sample_many (Delay.constant 4) ~n:3)

let test_delay_uniform () =
  List.iter
    (fun d -> Alcotest.(check bool) "in range" true (d >= 2 && d <= 6))
    (sample_many (Delay.uniform ~lo:2 ~hi:6) ~n:500)

let test_delay_exponential () =
  List.iter
    (fun d -> Alcotest.(check bool) "at least 1" true (d >= 1))
    (sample_many (Delay.exponential ~mean:4.0) ~n:500)

let test_delay_bimodal () =
  let model =
    Delay.bimodal ~fast:(Delay.constant 1) ~slow:(Delay.constant 100)
      ~slow_fraction:0.5
  in
  let ds = sample_many model ~n:200 in
  Alcotest.(check bool) "both modes appear" true
    (List.mem 1 ds && List.mem 100 ds);
  Alcotest.(check bool) "no other values" true
    (List.for_all (fun d -> d = 1 || d = 100) ds)

let test_delay_per_link () =
  let model =
    Delay.per_link ~default:(Delay.constant 1)
      [ ((Proc_id.Writer, Proc_id.Obj 1), Delay.constant 50) ]
  in
  let rng = Prng.create ~seed:1 in
  Alcotest.(check int) "override" 50
    (Delay.sample model ~rng ~src:Proc_id.Writer ~dst:(Proc_id.Obj 1) ~now:0);
  Alcotest.(check int) "default" 1
    (Delay.sample model ~rng ~src:Proc_id.Writer ~dst:(Proc_id.Obj 2) ~now:0)

let test_delay_slow_process () =
  let slow = Proc_id.Set.singleton (Proc_id.Obj 2) in
  let model = Delay.slow_process ~slow ~factor:10 (Delay.constant 3) in
  let rng = Prng.create ~seed:1 in
  Alcotest.(check int) "slowed" 30
    (Delay.sample model ~rng ~src:Proc_id.Writer ~dst:(Proc_id.Obj 2) ~now:0);
  Alcotest.(check int) "normal" 3
    (Delay.sample model ~rng ~src:Proc_id.Writer ~dst:(Proc_id.Obj 1) ~now:0)

let test_delay_jitter () =
  let model = Delay.jitter ~base:(Delay.constant 10) ~amplitude:5 in
  List.iter
    (fun d -> Alcotest.(check bool) "within jitter band" true (d >= 10 && d <= 15))
    (sample_many model ~n:200)

let test_trace_counting () =
  let t = Trace.create () in
  Trace.record t
    (Trace.Send { time = 1; src = Proc_id.Writer; dst = Proc_id.Obj 1; info = "m" });
  Trace.record t
    (Trace.Deliver { time = 2; src = Proc_id.Writer; dst = Proc_id.Obj 1; info = "m" });
  Trace.note t ~time:3 "hello";
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "sends" 1
    (Trace.sends_between t ~src:Proc_id.Writer ~dst:(Proc_id.Obj 1));
  Alcotest.(check int) "delivered" 1 (Trace.delivered_to t ~dst:(Proc_id.Obj 1));
  Alcotest.(check int) "notes" 1
    (Trace.count t ~pred:(function Trace.Note _ -> true | _ -> false))

(* Regression for the one-pass counters: Trace.stats must agree with
   separate Trace.count scans for every kind, on a trace mixing all of
   them. *)
let test_trace_stats_one_pass () =
  let t = Trace.create () in
  let w = Proc_id.Writer and o1 = Proc_id.Obj 1 in
  for i = 1 to 5 do
    Trace.record t (Trace.Send { time = i; src = w; dst = o1; info = "m" })
  done;
  for i = 1 to 3 do
    Trace.record t (Trace.Deliver { time = i; src = w; dst = o1; info = "m" })
  done;
  Trace.record t (Trace.Drop { time = 9; src = w; dst = o1; info = "m"; reason = "crashed" });
  Trace.record t (Trace.Crash { time = 10; proc = o1 });
  Trace.record t (Trace.Recover { time = 11; proc = o1 });
  Trace.note t ~time:12 "done";
  let st = Trace.stats t in
  let by_count pred = Trace.count t ~pred in
  Alcotest.(check int) "sends" (by_count (function Trace.Send _ -> true | _ -> false)) st.Trace.sends;
  Alcotest.(check int) "delivers" (by_count (function Trace.Deliver _ -> true | _ -> false)) st.Trace.delivers;
  Alcotest.(check int) "drops" (by_count (function Trace.Drop _ -> true | _ -> false)) st.Trace.drops;
  Alcotest.(check int) "crashes" (by_count (function Trace.Crash _ -> true | _ -> false)) st.Trace.crashes;
  Alcotest.(check int) "recovers" (by_count (function Trace.Recover _ -> true | _ -> false)) st.Trace.recovers;
  Alcotest.(check int) "notes" (by_count (function Trace.Note _ -> true | _ -> false)) st.Trace.notes;
  Alcotest.(check int) "sum = length"
    (st.Trace.sends + st.Trace.delivers + st.Trace.drops + st.Trace.crashes
   + st.Trace.recovers + st.Trace.notes)
    (Trace.length t)

let test_trace_jsonl () =
  let t = Trace.create () in
  Trace.record t
    (Trace.Send { time = 1; src = Proc_id.Writer; dst = Proc_id.Obj 2; info = "w1" });
  Trace.record t
    (Trace.Drop
       { time = 2; src = Proc_id.Writer; dst = Proc_id.Obj 2; info = "w1"; reason = "blocked" });
  Alcotest.(check string) "jsonl"
    ({|{"kind":"send","time":1,"src":"w","dst":"s2","info":"w1"}|} ^ "\n"
   ^ {|{"kind":"drop","time":2,"src":"w","dst":"s2","info":"w1","reason":"blocked"}|}
   ^ "\n")
    (Trace.to_jsonl t)

let test_trace_order () =
  let t = Trace.create () in
  Trace.note t ~time:1 "a";
  Trace.note t ~time:2 "b";
  match Trace.entries t with
  | [ Trace.Note { text = "a"; _ }; Trace.Note { text = "b"; _ } ] -> ()
  | _ -> Alcotest.fail "entries not in recording order"

let suite =
  ( "sim-misc",
    [
      Alcotest.test_case "proc_id compare" `Quick test_proc_id_compare;
      Alcotest.test_case "proc_id strings" `Quick test_proc_id_strings;
      QCheck_alcotest.to_alcotest proc_id_of_string_inverts;
      Alcotest.test_case "proc_id sets" `Quick test_proc_id_sets;
      Alcotest.test_case "proc_id indices" `Quick test_proc_id_indices;
      Alcotest.test_case "delay constant" `Quick test_delay_constant;
      Alcotest.test_case "delay uniform" `Quick test_delay_uniform;
      Alcotest.test_case "delay exponential" `Quick test_delay_exponential;
      Alcotest.test_case "delay bimodal" `Quick test_delay_bimodal;
      Alcotest.test_case "delay per-link" `Quick test_delay_per_link;
      Alcotest.test_case "delay slow process" `Quick test_delay_slow_process;
      Alcotest.test_case "delay jitter" `Quick test_delay_jitter;
      Alcotest.test_case "trace counting" `Quick test_trace_counting;
      Alcotest.test_case "trace stats one-pass" `Quick test_trace_stats_one_pass;
      Alcotest.test_case "trace jsonl" `Quick test_trace_jsonl;
      Alcotest.test_case "trace order" `Quick test_trace_order;
    ] )
