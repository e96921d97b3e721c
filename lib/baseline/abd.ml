open Core

type msg =
  | Write_req of { ts : int; v : Value.t }
  | Write_ack of { ts : int }
  | Read_req of { rid : int }
  | Read_ack of { rid : int; ts : int; v : Value.t }
  | Write_back of { rid : int; ts : int; v : Value.t }
  | Write_back_ack of { rid : int }

let msg_info = function
  | Write_req { ts; _ } -> Printf.sprintf "WRITE(ts=%d)" ts
  | Write_ack { ts } -> Printf.sprintf "WRITE_ACK(ts=%d)" ts
  | Read_req { rid } -> Printf.sprintf "READ(rid=%d)" rid
  | Read_ack { rid; ts; _ } -> Printf.sprintf "READ_ACK(rid=%d,ts=%d)" rid ts
  | Write_back { rid; ts; _ } -> Printf.sprintf "WB(rid=%d,ts=%d)" rid ts
  | Write_back_ack { rid } -> Printf.sprintf "WB_ACK(rid=%d)" rid

let value_words = function Value.Bottom -> 1 | Value.V s -> 1 + (String.length s / 8)

let msg_size_words = function
  | Write_req { v; _ } | Read_ack { v; _ } | Write_back { v; _ } ->
      2 + value_words v
  | Write_ack _ | Read_req _ | Write_back_ack _ -> 2

(* The reader's write-back is its second round. *)
let msg_class = function
  | Write_req _ -> Obs.Wire.write ~round:1 ~request:true
  | Write_ack _ -> Obs.Wire.write ~round:1 ~request:false
  | Read_req _ -> Obs.Wire.read ~round:1 ~request:true
  | Read_ack _ -> Obs.Wire.read ~round:1 ~request:false
  | Write_back _ -> Obs.Wire.read ~round:2 ~request:true
  | Write_back_ack _ -> Obs.Wire.read ~round:2 ~request:false

let answers ~request reply =
  match (request, reply) with
  | Write_req { ts; _ }, Write_ack { ts = ts' } -> ts = ts'
  | Read_req { rid }, Read_ack { rid = rid'; _ }
  | Write_back { rid; _ }, Write_back_ack { rid = rid' } ->
      rid = rid'
  | _ -> false

(* Object: the classic ⟨ts, v⟩ cell; adopts any fresher pair, including
   reader write-backs. *)
type obj = { index : int; ts : int; v : Value.t }

let obj_init ~cfg:_ ~index = { index; ts = 0; v = Value.bottom }

let obj_handle o ~src:_ msg =
  match msg with
  | Write_req { ts; v } ->
      let o = if ts > o.ts then { o with ts; v } else o in
      (o, Some (Write_ack { ts }))
  | Write_back { rid; ts; v } ->
      let o = if ts > o.ts then { o with ts; v } else o in
      (o, Some (Write_back_ack { rid }))
  | Read_req { rid } -> (o, Some (Read_ack { rid; ts = o.ts; v = o.v }))
  | Write_ack _ | Read_ack _ | Write_back_ack _ -> (o, None)

(* Writer: one round. *)
type writer = {
  cfg : Quorum.Config.t;
  wts : int;
  pending : (int * Ints.Set.t) option;  (* ts awaited, acks *)
}

let writer_init ~cfg = { cfg; wts = 0; pending = None }

let writer_start w v =
  match w.pending with
  | Some _ -> Error "write already in progress"
  | None ->
      if Value.is_bottom v then Error "bottom is not a valid input value"
      else
        let ts = w.wts + 1 in
        ( Ok
            ( { w with wts = ts; pending = Some (ts, Ints.Set.empty) },
              Write_req { ts; v } )
          : (writer * msg, string) result )

let writer_on_msg w ~obj msg =
  match (w.pending, msg) with
  | Some (ts, acks), Write_ack { ts = ts' } when ts' = ts ->
      let acks = Ints.Set.add obj acks in
      if Ints.Set.cardinal acks >= Quorum.Config.quorum w.cfg then
        ({ w with pending = None }, [ Events.Write_done { rounds = 1 } ])
      else ({ w with pending = Some (ts, acks) }, [])
  | _ -> (w, [])

(* Reader: collect a quorum, pick the highest pair, optionally write it
   back. *)
type read_phase =
  | Collect of { replies : (int * Value.t) Ints.Map.t }  (* obj -> ts,v *)
  | Writing_back of { ts : int; v : Value.t; acks : Ints.Set.t }

type reader = {
  rcfg : Quorum.Config.t;
  j : int;
  rid : int;
  phase : read_phase option;
}

let reader_init ~cfg ~j = { rcfg = cfg; j; rid = 0; phase = None }

let reader_start r =
  match r.phase with
  | Some _ -> Error "read already in progress"
  | None ->
      let rid = r.rid + 1 in
      ( Ok
          ( { r with rid; phase = Some (Collect { replies = Ints.Map.empty }) },
            Read_req { rid } )
        : (reader * msg, string) result )

let best replies =
  Ints.Map.fold
    (fun _ (ts, v) (bts, bv) -> if ts > bts then (ts, v) else (bts, bv))
    replies
    (0, Value.bottom)

let make_reader ~write_back =
  let reader_on_msg r ~obj msg =
    match (r.phase, msg) with
    | Some (Collect { replies }), Read_ack { rid; ts; v } when rid = r.rid ->
        let replies = Ints.Map.add obj (ts, v) replies in
        if Ints.Map.cardinal replies >= Quorum.Config.quorum r.rcfg then begin
          let ts, v = best replies in
          let unanimous =
            Ints.Map.for_all (fun _ (ts', _) -> ts' = ts) replies
          in
          if write_back && not unanimous then
            ( {
                r with
                phase = Some (Writing_back { ts; v; acks = Ints.Set.empty });
              },
              [ Events.Broadcast (Write_back { rid = r.rid; ts; v }) ] )
          else
            ({ r with phase = None }, [ Events.Read_done { value = v; rounds = 1 } ])
        end
        else ({ r with phase = Some (Collect { replies }) }, [])
    | Some (Writing_back { ts; v; acks }), Write_back_ack { rid } when rid = r.rid
      ->
        let acks = Ints.Set.add obj acks in
        if Ints.Set.cardinal acks >= Quorum.Config.quorum r.rcfg then
          ({ r with phase = None }, [ Events.Read_done { value = v; rounds = 2 } ])
        else ({ r with phase = Some (Writing_back { ts; v; acks }) }, [])
    | _ -> (r, [])
  in
  reader_on_msg

module Common = struct
  type nonrec msg = msg

  let msg_info = msg_info

  let msg_size_words = msg_size_words

  let msg_class = msg_class

  type nonrec obj = obj

  let obj_init = obj_init

  let obj_handle o ~src msg = obj_handle o ~src msg

  type nonrec writer = writer

  let writer_init = writer_init

  let writer_start = writer_start

  let writer_on_msg = writer_on_msg

  type nonrec reader = reader

  let reader_init = reader_init

  let reader_start = reader_start

  (* No client-side cached state to resync after a reconnect. *)
  let reader_on_reconnect r = r
end

module Regular = struct
  let name = "abd"

  include Common

  let reader_on_msg = make_reader ~write_back:false
end

module Atomic = struct
  let name = "abd-atomic"

  include Common

  let reader_on_msg = make_reader ~write_back:true
end

let byz_forge_high ~value ~ts_boost : msg Byz.factory =
 fun ~cfg:_ ~index ~rng:_ ->
  let state = ref (obj_init ~cfg:(Quorum.Config.make_exn ~s:1 ~t:0 ~b:0) ~index) in
  {
    Byz.handle =
      (fun ~src ~now:_ msg ->
        let state', reply = obj_handle !state ~src msg in
        state := state';
        match reply with
        | None -> []
        | Some (Read_ack { rid; ts; v = _ }) ->
            [ (src, Read_ack { rid; ts = ts + ts_boost; v = Value.v value }) ]
        | Some m -> [ (src, m) ])
  }
