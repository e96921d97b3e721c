type t =
  | Pw of { ts : int; pw : Tsval.t; w : Wtuple.t }
  | Pw_ack of { ts : int; tsr : int Ints.Map.t }
  | W of { ts : int; pw : Tsval.t; w : Wtuple.t }
  | W_ack of { ts : int }
  | Read1 of { tsr : int; from_ts : int }
  | Read2 of { tsr : int; from_ts : int }
  | Read1_ack of { tsr : int; pw : Tsval.t; w : Wtuple.t }
  | Read2_ack of { tsr : int; pw : Tsval.t; w : Wtuple.t }
  | Read1_ack_h of { tsr : int; history : History_store.t }
  | Read2_ack_h of { tsr : int; history : History_store.t }

let info = function
  | Pw { ts; _ } -> Printf.sprintf "PW(ts=%d)" ts
  | Pw_ack { ts; _ } -> Printf.sprintf "PW_ACK(ts=%d)" ts
  | W { ts; _ } -> Printf.sprintf "W(ts=%d)" ts
  | W_ack { ts } -> Printf.sprintf "W_ACK(ts=%d)" ts
  | Read1 { tsr; _ } -> Printf.sprintf "READ1(tsr=%d)" tsr
  | Read2 { tsr; _ } -> Printf.sprintf "READ2(tsr=%d)" tsr
  | Read1_ack { tsr; w; _ } ->
      Printf.sprintf "READ1_ACK(tsr=%d,w.ts=%d)" tsr (Wtuple.ts w)
  | Read2_ack { tsr; w; _ } ->
      Printf.sprintf "READ2_ACK(tsr=%d,w.ts=%d)" tsr (Wtuple.ts w)
  | Read1_ack_h { tsr; history } ->
      Printf.sprintf "READ1_ACK(tsr=%d,|h|=%d)" tsr (History_store.length history)
  | Read2_ack_h { tsr; history } ->
      Printf.sprintf "READ2_ACK(tsr=%d,|h|=%d)" tsr (History_store.length history)

let pp ppf m = Format.pp_print_string ppf (info m)

let value_words = function Value.Bottom -> 1 | Value.V s -> 1 + (String.length s / 8)

let tsval_words (tv : Tsval.t) = 1 + value_words tv.v

let matrix_words m =
  List.fold_left
    (fun acc i ->
      match Tsr_matrix.row m ~obj:i with
      | None -> acc
      | Some row -> acc + 1 + Ints.Map.cardinal row)
    0 (Tsr_matrix.rows_present m)

let wtuple_words (w : Wtuple.t) = tsval_words w.tsval + matrix_words w.tsrarray

let history_words h =
  List.fold_left
    (fun acc (_, { History_store.pw; w }) ->
      acc + 1 + tsval_words pw
      + match w with None -> 1 | Some w -> wtuple_words w)
    0 (History_store.bindings h)

let size_words = function
  | Pw { pw; w; _ } | W { pw; w; _ } -> 1 + tsval_words pw + wtuple_words w
  | Pw_ack { tsr; _ } -> 1 + Ints.Map.cardinal tsr
  | W_ack _ -> 1
  | Read1 _ | Read2 _ -> 2
  | Read1_ack { pw; w; _ } | Read2_ack { pw; w; _ } ->
      1 + tsval_words pw + wtuple_words w
  | Read1_ack_h { history; _ } | Read2_ack_h { history; _ } ->
      1 + history_words history

let classify = function
  | Pw _ -> Obs.Wire.write ~round:1 ~request:true
  | Pw_ack _ -> Obs.Wire.write ~round:1 ~request:false
  | W _ -> Obs.Wire.write ~round:2 ~request:true
  | W_ack _ -> Obs.Wire.write ~round:2 ~request:false
  | Read1 _ -> Obs.Wire.read ~round:1 ~request:true
  | Read2 _ -> Obs.Wire.read ~round:2 ~request:true
  | Read1_ack _ | Read1_ack_h _ -> Obs.Wire.read ~round:1 ~request:false
  | Read2_ack _ | Read2_ack_h _ -> Obs.Wire.read ~round:2 ~request:false

let is_read_round = function
  | Read1 _ -> Some 1
  | Read2 _ -> Some 2
  | Pw _ | Pw_ack _ | W _ | W_ack _ | Read1_ack _ | Read2_ack _
  | Read1_ack_h _ | Read2_ack_h _ ->
      None

let answers ~request reply =
  match (request, reply) with
  | Pw { ts; _ }, Pw_ack { ts = ts'; _ } | W { ts; _ }, W_ack { ts = ts' } ->
      ts = ts'
  | ( Read1 { tsr; _ },
      (Read1_ack { tsr = tsr'; _ } | Read1_ack_h { tsr = tsr'; _ }) ) ->
      tsr = tsr'
  | ( Read2 { tsr; _ },
      (Read2_ack { tsr = tsr'; _ } | Read2_ack_h { tsr = tsr'; _ }) ) ->
      tsr = tsr'
  | _ -> false
