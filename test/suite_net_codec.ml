(* Wire-codec properties: every protocol message round-trips through the
   binary codec bit-exactly, and decoding is total — truncated, mutated,
   or random byte strings must produce [Error], never an exception.  The
   adversarial half is what the network runtime's robustness rests on: a
   Byzantine server owns every byte it sends us. *)

open Core

(* ----- structural equality (Messages.t has no [equal]) ----------------- *)

let map_equal = Ints.Map.equal Int.equal

let msg_equal (a : Messages.t) (b : Messages.t) =
  match (a, b) with
  | Pw { ts; pw; w }, Pw { ts = ts'; pw = pw'; w = w' }
  | W { ts; pw; w }, W { ts = ts'; pw = pw'; w = w' } ->
      ts = ts' && Tsval.equal pw pw' && Wtuple.equal w w'
  | Pw_ack { ts; tsr }, Pw_ack { ts = ts'; tsr = tsr' } ->
      ts = ts' && map_equal tsr tsr'
  | W_ack { ts }, W_ack { ts = ts' } -> ts = ts'
  | Read1 { tsr; from_ts }, Read1 { tsr = tsr'; from_ts = f' }
  | Read2 { tsr; from_ts }, Read2 { tsr = tsr'; from_ts = f' } ->
      tsr = tsr' && from_ts = f'
  | Read1_ack { tsr; pw; w }, Read1_ack { tsr = tsr'; pw = pw'; w = w' }
  | Read2_ack { tsr; pw; w }, Read2_ack { tsr = tsr'; pw = pw'; w = w' } ->
      tsr = tsr' && Tsval.equal pw pw' && Wtuple.equal w w'
  | Read1_ack_h { tsr; history }, Read1_ack_h { tsr = tsr'; history = h' }
  | Read2_ack_h { tsr; history }, Read2_ack_h { tsr = tsr'; history = h' } ->
      tsr = tsr' && History_store.equal history h'
  | _ -> false

(* Abd.msg is ints and Value.t (a plain variant): polymorphic equality
   is structural. *)
let abd_equal (a : Baseline.Abd.msg) (b : Baseline.Abd.msg) = a = b

(* ----- generators ------------------------------------------------------- *)

(* Timestamps in live runs are small non-negatives, but the varint layer
   must round-trip the full int range — mix both. *)
let gen_int =
  QCheck.Gen.(
    oneof
      [
        0 -- 12;
        int;
        oneofl [ 0; 1; -1; 63; 64; 0x7f; 0x80; 0xffff; max_int; min_int ];
      ])

let gen_value =
  QCheck.Gen.(
    oneof [ return Value.bottom; map Value.v (string_size (0 -- 24)) ])

let gen_tsval =
  QCheck.Gen.(map2 (fun ts v -> Tsval.make ~ts ~v) gen_int gen_value)

let gen_row =
  QCheck.Gen.(
    map
      (fun l -> List.fold_left (fun m (j, ts) -> Ints.Map.add j ts m) Ints.Map.empty l)
      (list_size (0 -- 4) (pair (1 -- 5) gen_int)))

let gen_matrix =
  QCheck.Gen.(
    map
      (fun rows ->
        List.fold_left
          (fun m (i, row) -> Tsr_matrix.set_row m ~obj:i row)
          Tsr_matrix.empty rows)
      (list_size (0 -- 4) (pair (1 -- 6) gen_row)))

let gen_wtuple =
  QCheck.Gen.(
    map2 (fun tsval tsrarray -> Wtuple.make ~tsval ~tsrarray) gen_tsval
      gen_matrix)

let gen_history =
  QCheck.Gen.(
    map
      (fun entries ->
        List.fold_left
          (fun h (ts, pw, w) -> History_store.set h ~ts { History_store.pw; w })
          History_store.init entries)
      (list_size (0 -- 4) (triple (0 -- 12) gen_tsval (option gen_wtuple))))

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        map3 (fun ts pw w -> Messages.Pw { ts; pw; w }) gen_int gen_tsval gen_wtuple;
        map2 (fun ts tsr -> Messages.Pw_ack { ts; tsr }) gen_int gen_row;
        map3 (fun ts pw w -> Messages.W { ts; pw; w }) gen_int gen_tsval gen_wtuple;
        map (fun ts -> Messages.W_ack { ts }) gen_int;
        map2 (fun tsr from_ts -> Messages.Read1 { tsr; from_ts }) gen_int gen_int;
        map2 (fun tsr from_ts -> Messages.Read2 { tsr; from_ts }) gen_int gen_int;
        map3 (fun tsr pw w -> Messages.Read1_ack { tsr; pw; w }) gen_int gen_tsval gen_wtuple;
        map3 (fun tsr pw w -> Messages.Read2_ack { tsr; pw; w }) gen_int gen_tsval gen_wtuple;
        map2 (fun tsr history -> Messages.Read1_ack_h { tsr; history }) gen_int gen_history;
        map2 (fun tsr history -> Messages.Read2_ack_h { tsr; history }) gen_int gen_history;
      ])

let gen_abd =
  QCheck.Gen.(
    oneof
      [
        map2 (fun ts v -> Baseline.Abd.Write_req { ts; v }) gen_int gen_value;
        map (fun ts -> Baseline.Abd.Write_ack { ts }) gen_int;
        map (fun rid -> Baseline.Abd.Read_req { rid }) gen_int;
        map3 (fun rid ts v -> Baseline.Abd.Read_ack { rid; ts; v }) gen_int gen_int gen_value;
        map3 (fun rid ts v -> Baseline.Abd.Write_back { rid; ts; v }) gen_int gen_int gen_value;
        map (fun rid -> Baseline.Abd.Write_back_ack { rid }) gen_int;
      ])

let arb_msg = QCheck.make ~print:Messages.info gen_msg

let arb_abd = QCheck.make ~print:Baseline.Abd.Regular.msg_info gen_abd

(* ----- round-trips ------------------------------------------------------ *)

let roundtrip_messages =
  QCheck.Test.make ~name:"Messages.t round-trips bit-exactly" ~count:1000
    arb_msg (fun m ->
      let bytes = Net.Codec.encode_msg Net.Codec.messages m in
      match Net.Codec.decode_msg Net.Codec.messages bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
          msg_equal m m'
          && String.equal bytes (Net.Codec.encode_msg Net.Codec.messages m'))

let roundtrip_abd =
  QCheck.Test.make ~name:"Abd.msg round-trips bit-exactly" ~count:1000 arb_abd
    (fun m ->
      let bytes = Net.Codec.encode_msg Net.Codec.abd m in
      match Net.Codec.decode_msg Net.Codec.abd bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
          abd_equal m m'
          && String.equal bytes (Net.Codec.encode_msg Net.Codec.abd m'))

let payload_of_frame codec f =
  let wire = Net.Codec.encode_frame codec f in
  String.sub wire 4 (String.length wire - 4)

let frame_equal eq a b =
  match (a, b) with
  | ( Net.Codec.Hello { proto; sender; obj },
      Net.Codec.Hello { proto = p'; sender = s'; obj = o' } ) ->
      proto = p' && sender = s' && obj = o'
  | Hello_ack { proto; obj }, Hello_ack { proto = p'; obj = o' } ->
      proto = p' && obj = o'
  | ( Msg_key { key; sender; msg },
      Msg_key { key = k'; sender = s'; msg = m' } ) ->
      key = k' && sender = s' && eq msg m'
  | Err e, Err e' -> e = e'
  | _ -> false

(* Key ids are nonnegative by construction (the decoder rejects the
   rest); stress the varint width boundaries up to max_int. *)
let gen_key =
  QCheck.Gen.(
    oneof
      [
        0 -- 12;
        oneofl [ 0; 1; 63; 64; 0x7f; 0x80; 0xffff; 1_000_000; max_int ];
      ])

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun proto sender obj -> Net.Codec.Hello { proto; sender; obj })
          (string_size (0 -- 12))
          (string_size (0 -- 6))
          (0 -- 8);
        map2
          (fun proto obj -> Net.Codec.Hello_ack { proto; obj })
          (string_size (0 -- 12))
          (0 -- 8);
        map3
          (fun key sender msg -> Net.Codec.Msg_key { key; sender; msg })
          gen_key
          (string_size (0 -- 6))
          gen_msg;
        map (fun e -> Net.Codec.Err e) (string_size (0 -- 40));
      ])

let arb_frame =
  QCheck.make
    ~print:(Net.Codec.frame_info ~msg_info:Messages.info)
    gen_frame

let roundtrip_frames =
  QCheck.Test.make ~name:"frames round-trip through the payload decoder"
    ~count:500 arb_frame (fun f ->
      match
        Net.Codec.decode_payload Net.Codec.messages
          (payload_of_frame Net.Codec.messages f)
      with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok f' -> frame_equal msg_equal f f')

(* ----- keyed frames (ISSUE 9) ------------------------------------------- *)

let negative_key_rejected () =
  (* a Byzantine sender can put any varint in the key slot; negative key
     ids must be a clean decode error, not a table index *)
  let f =
    Net.Codec.Msg_key
      { key = -1; sender = "w"; msg = Messages.W_ack { ts = 1 } }
  in
  match
    Net.Codec.decode_payload Net.Codec.messages
      (payload_of_frame Net.Codec.messages f)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative key id accepted"

(* ----- adversarial inputs ----------------------------------------------- *)

let never_raises_or_ok f =
  match f () with Ok _ | Error _ -> true | exception _ -> false

let truncation_messages =
  QCheck.Test.make
    ~name:"every strict prefix of a message decodes to Error, never raises"
    ~count:300 arb_msg (fun m ->
      let bytes = Net.Codec.encode_msg Net.Codec.messages m in
      let ok = ref true in
      for len = 0 to String.length bytes - 1 do
        (match
           Net.Codec.decode_msg Net.Codec.messages (String.sub bytes 0 len)
         with
        | Ok _ -> ok := false (* a strict prefix must not decode *)
        | Error _ -> ()
        | exception _ -> ok := false);
        (* trailing garbage is equally rejected by the strict decoder *)
        match Net.Codec.decode_msg Net.Codec.messages (bytes ^ "\x00") with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let truncation_frames =
  QCheck.Test.make
    ~name:"every strict prefix of a frame payload decodes to Error"
    ~count:200 arb_frame (fun f ->
      let payload = payload_of_frame Net.Codec.messages f in
      let ok = ref true in
      for len = 0 to String.length payload - 1 do
        match
          Net.Codec.decode_payload Net.Codec.messages
            (String.sub payload 0 len)
        with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let arb_garbage =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
    QCheck.Gen.(string_size (0 -- 200))

let garbage_decode =
  QCheck.Test.make ~name:"random bytes never make the decoders raise"
    ~count:1000 arb_garbage (fun s ->
      never_raises_or_ok (fun () ->
          Net.Codec.decode_msg Net.Codec.messages s)
      && never_raises_or_ok (fun () -> Net.Codec.decode_msg Net.Codec.abd s)
      && never_raises_or_ok (fun () ->
             Net.Codec.decode_payload Net.Codec.messages s))

let mutation_decode =
  QCheck.Test.make
    ~name:"single-byte mutations of a valid message never raise" ~count:300
    QCheck.(pair arb_msg (pair small_nat small_nat))
    (fun (m, (pos, delta)) ->
      let bytes = Bytes.of_string (Net.Codec.encode_msg Net.Codec.messages m) in
      if Bytes.length bytes = 0 then true
      else begin
        let pos = pos mod Bytes.length bytes in
        Bytes.set_uint8 bytes pos
          ((Bytes.get_uint8 bytes pos + 1 + delta) land 0xff);
        never_raises_or_ok (fun () ->
            Net.Codec.decode_msg Net.Codec.messages (Bytes.to_string bytes))
      end)

(* ----- incremental reader ----------------------------------------------- *)

let feed_string r s =
  Net.Codec.Reader.feed r (Bytes.of_string s) 0 (String.length s)

let reader_reassembles =
  QCheck.Test.make
    ~name:"Reader yields the same frames whatever the chunk boundaries"
    ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 5) arb_frame) (list small_nat))
    (fun (frames, cuts) ->
      let wire =
        String.concat ""
          (List.map (Net.Codec.encode_frame Net.Codec.messages) frames)
      in
      let r = Net.Codec.Reader.create () in
      (* split [wire] at pseudo-random positions derived from [cuts] *)
      let pos = ref 0 in
      List.iter
        (fun c ->
          let remaining = String.length wire - !pos in
          if remaining > 0 then begin
            let len = 1 + (c mod remaining) in
            feed_string r (String.sub wire !pos len);
            pos := !pos + len
          end)
        cuts;
      feed_string r (String.sub wire !pos (String.length wire - !pos));
      let rec drain acc =
        match Net.Codec.Reader.next Net.Codec.messages r with
        | Ok (`Frame f) -> drain (f :: acc)
        | Ok `Awaiting -> List.rev acc
        | Error e -> QCheck.Test.fail_reportf "reader error: %s" e
      in
      let got = drain [] in
      List.length got = List.length frames
      && List.for_all2 (frame_equal msg_equal) frames got
      && Net.Codec.Reader.pending r = 0)

let reader_survives_garbage =
  QCheck.Test.make ~name:"Reader never raises on a garbage stream"
    ~count:500 arb_garbage (fun s ->
      let r = Net.Codec.Reader.create () in
      feed_string r s;
      let rec drain budget =
        if budget = 0 then true
        else
          match Net.Codec.Reader.next Net.Codec.messages r with
          | Ok (`Frame _) -> drain (budget - 1)
          | Ok `Awaiting | Error _ -> true
          | exception _ -> false
      in
      drain 64)

(* ----- frame batching (ISSUE 5) ------------------------------------------ *)

(* Frames are length-prefixed and self-delimiting, so appending N frames
   to one scratch and writing them in a single flush must put exactly
   the same bytes on the wire as N separate encodes — and a Reader fed
   the batched bytes must yield the same frames.  This is the whole
   wire-compatibility argument for batching. *)
let batched_equals_unbatched =
  QCheck.Test.make
    ~name:"batched framing is byte-identical to unbatched and decodes the same"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 8) arb_frame)
    (fun frames ->
      let unbatched =
        String.concat ""
          (List.map (Net.Codec.encode_frame Net.Codec.messages) frames)
      in
      let out = Net.Codec.Out.create () in
      List.iter (Net.Codec.encode_frame_into Net.Codec.messages out) frames;
      let batched = Net.Codec.Out.contents out in
      if not (String.equal batched unbatched) then
        QCheck.Test.fail_reportf "batched bytes differ (%d vs %d bytes)"
          (String.length batched) (String.length unbatched)
      else begin
        let r = Net.Codec.Reader.create () in
        feed_string r batched;
        let rec drain acc =
          match Net.Codec.Reader.next Net.Codec.messages r with
          | Ok (`Frame f) -> drain (f :: acc)
          | Ok `Awaiting -> List.rev acc
          | Error e -> QCheck.Test.fail_reportf "reader error: %s" e
        in
        let got = drain [] in
        List.length got = List.length frames
        && List.for_all2 (frame_equal msg_equal) frames got
        && Net.Codec.Reader.pending r = 0
      end)

(* The scratch survives clears: reusing one [Out] across batches must
   not leak bytes between them. *)
let out_reuse_is_clean =
  QCheck.Test.make ~name:"Out scratch reuse leaks nothing across clears"
    ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 4) arb_frame) (list_of_size Gen.(1 -- 4) arb_frame))
    (fun (first, second) ->
      let out = Net.Codec.Out.create () in
      List.iter (Net.Codec.encode_frame_into Net.Codec.messages out) first;
      Net.Codec.Out.clear out;
      List.iter (Net.Codec.encode_frame_into Net.Codec.messages out) second;
      String.equal
        (Net.Codec.Out.contents out)
        (String.concat ""
           (List.map (Net.Codec.encode_frame Net.Codec.messages) second)))

let reader_shrinks_after_large_frame () =
  (* a single huge frame must not pin the reader's peak capacity: once
     it drains, the buffer drops back to a pool-class size *)
  let big = Net.Codec.Err (String.make 200_000 'x') in
  let small = Net.Codec.Err "tiny" in
  let r = Net.Codec.Reader.create () in
  let baseline = Net.Codec.Reader.capacity r in
  feed_string r (Net.Codec.encode_frame Net.Codec.messages big);
  Alcotest.(check bool) "buffer grew for the large frame" true
    (Net.Codec.Reader.capacity r > baseline);
  (match Net.Codec.Reader.next Net.Codec.messages r with
  | Ok (`Frame (Net.Codec.Err s)) ->
      Alcotest.(check int) "large frame intact" 200_000 (String.length s)
  | _ -> Alcotest.fail "large frame did not decode");
  (* the shrink happens on the next extraction once the buffer is idle *)
  feed_string r (Net.Codec.encode_frame Net.Codec.messages small);
  (match Net.Codec.Reader.next Net.Codec.messages r with
  | Ok (`Frame (Net.Codec.Err s)) -> Alcotest.(check string) "small frame intact" "tiny" s
  | _ -> Alcotest.fail "small frame did not decode");
  Alcotest.(check bool)
    (Printf.sprintf "capacity back to pool class (%d)"
       (Net.Codec.Reader.capacity r))
    true
    (Net.Codec.Reader.capacity r <= 65536);
  (* and the shrunken reader still works *)
  feed_string r (Net.Codec.encode_frame Net.Codec.messages small);
  match Net.Codec.Reader.next Net.Codec.messages r with
  | Ok (`Frame (Net.Codec.Err s)) -> Alcotest.(check string) "still decodes" "tiny" s
  | _ -> Alcotest.fail "reader broken after shrink"

(* ----- deterministic edge cases ----------------------------------------- *)

let oversized_rejected () =
  (* a length prefix beyond max_frame must be refused before allocation *)
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (Net.Codec.max_frame + 1));
  let r = Net.Codec.Reader.create () in
  Net.Codec.Reader.feed r b 0 8;
  match Net.Codec.Reader.next Net.Codec.messages r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let bad_magic_rejected () =
  match Net.Codec.decode_payload Net.Codec.messages "XX\x01\x03boom" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

let bad_version_rejected () =
  let payload = payload_of_frame Net.Codec.messages (Net.Codec.Err "x") in
  let b = Bytes.of_string payload in
  Bytes.set_uint8 b 2 (Net.Codec.version + 1);
  match Net.Codec.decode_payload Net.Codec.messages (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted"

let wrong_codec_is_error () =
  (* an ABD message through the core codec: must be a clean error *)
  let bytes =
    Net.Codec.encode_msg Net.Codec.abd (Baseline.Abd.Read_req { rid = 3 })
  in
  match Net.Codec.decode_msg Net.Codec.messages bytes with
  | Error _ -> ()
  | Ok m -> Alcotest.failf "cross-protocol decode produced %s" (Messages.info m)

let suite =
  ( "net_codec",
    [
      QCheck_alcotest.to_alcotest roundtrip_messages;
      QCheck_alcotest.to_alcotest roundtrip_abd;
      QCheck_alcotest.to_alcotest roundtrip_frames;
      Alcotest.test_case "negative key id rejected" `Quick negative_key_rejected;
      QCheck_alcotest.to_alcotest truncation_messages;
      QCheck_alcotest.to_alcotest truncation_frames;
      QCheck_alcotest.to_alcotest garbage_decode;
      QCheck_alcotest.to_alcotest mutation_decode;
      QCheck_alcotest.to_alcotest reader_reassembles;
      QCheck_alcotest.to_alcotest reader_survives_garbage;
      QCheck_alcotest.to_alcotest batched_equals_unbatched;
      QCheck_alcotest.to_alcotest out_reuse_is_clean;
      Alcotest.test_case "Reader shrinks after a large frame" `Quick
        reader_shrinks_after_large_frame;
      Alcotest.test_case "oversized length prefix rejected" `Quick oversized_rejected;
      Alcotest.test_case "bad magic rejected" `Quick bad_magic_rejected;
      Alcotest.test_case "future version rejected" `Quick bad_version_rejected;
      Alcotest.test_case "cross-protocol bytes are a clean error" `Quick wrong_codec_is_error;
    ] )
