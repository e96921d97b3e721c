(* In-process replay of a workload's operations through the same
   automata and codec the live system runs, one operation at a time and
   with every call timed: the reader/writer automaton steps, each base
   object's [obj_handle], and the encode and decode of every request and
   reply frame.  Nothing here touches a socket, so the sum of these
   costs is the floor under the live client's and server's CPU per
   operation; what the live run spends above it is syscalls, the event
   loops and the runtime.

   Each round's request is encoded once per member object (the live
   client appends a frame to each member's connection) and decoded by
   each object; every object's reply is encoded, decoded by the client
   and fed to the automaton until the operation completes — replies
   that arrive after completion are decoded but dropped, as live.  A
   broadcast emitted together with the decision (the fast read's READ2)
   still goes out and is handled by every object, as live. *)

type acc = { mutable ns : int; mutable calls : int }

type t = {
  ops : int;
  reads : acc;  (** [reader_start] + [reader_on_msg], calls = reads *)
  writes : acc;  (** [writer_start] + [writer_on_msg], calls = writes *)
  objects : acc;  (** [obj_handle] *)
  encode : acc;
  decode : acc;
  bytes : int;  (** every frame, length prefix included *)
}

(* Ops whose calls are recorded as spans; later ops are timed the same
   way but only into the per-layer sums, which keeps trace.jsonl small. *)
let span_ops = 2_000

(* What one clock read costs: subtracted from every timed call. *)
let clock_cost () =
  Stat.median
    (Array.init 2_001 (fun _ ->
         let a = Spans.now_ns () in
         let b = Spans.now_ns () in
         float_of_int (b - a)))
  |> int_of_float

let run (type m) (module P : Core.Protocol_intf.S with type msg = m)
    (codec : m Net.Codec.t) ~cfg ~sp ~parent (ops : Net.Client.Keyed.kop array)
    =
  let s = cfg.Quorum.Config.s in
  let cost = clock_cost () in
  let mk () = { ns = 0; calls = 0 } in
  let r =
    {
      ops = Array.length ops;
      reads = mk ();
      writes = mk ();
      objects = mk ();
      encode = mk ();
      decode = mk ();
      bytes = 0;
    }
  in
  let bytes = ref 0 in
  let op_span = ref (-1) in
  (* Close a timed call: [count] says whether it is one more call of
     [acc] (automaton steps count per operation, not per call). *)
  let stamp ?(count = true) acc name t0 =
    let t1 = Spans.now_ns () in
    acc.ns <- acc.ns + max 0 (t1 - t0 - cost);
    if count then acc.calls <- acc.calls + 1;
    match sp with
    | Some tr when !op_span >= 0 ->
        ignore (Spans.add tr ~parent:!op_span name ~start:t0 ~stop:t1)
    | _ -> ()
  in
  let out = Net.Codec.Out.create () in
  let roundtrip ~key ~sender msg =
    Net.Codec.Out.clear out;
    let t0 = Spans.now_ns () in
    Net.Codec.encode_frame_into codec out
      (Net.Codec.Msg_key { key; sender; msg });
    stamp r.encode "codec.encode" t0;
    let frame = Net.Codec.Out.contents out in
    bytes := !bytes + String.length frame;
    let payload = String.sub frame 4 (String.length frame - 4) in
    let t0 = Spans.now_ns () in
    let decoded = Net.Codec.decode_payload codec payload in
    stamp r.decode "codec.decode" t0;
    match decoded with
    | Ok (Net.Codec.Msg_key { msg; _ }) -> msg
    | Ok _ | Error _ -> failwith "replay: frame did not round-trip"
  in
  let keys = Hashtbl.create 1024 in
  let state key =
    match Hashtbl.find_opt keys key with
    | Some st -> st
    | None ->
        let st =
          ( Array.init s (fun i -> P.obj_init ~cfg ~index:(i + 1)),
            ref (P.reader_init ~cfg ~j:1),
            ref (P.writer_init ~cfg) )
        in
        Hashtbl.replace keys key st;
        st
  in
  Array.iteri
    (fun i op ->
      op_span :=
        (match sp with
        | Some tr when i < span_ops -> Spans.enter tr ~parent "replay.op"
        | _ -> -1);
      let key = Net.Client.Keyed.op_key op in
      let objs, rd, wr = state key in
      let write = Net.Client.Keyed.op_is_write op in
      let acc = if write then r.writes else r.reads in
      let sender = if write then "w" else "r1" in
      let src = if write then Sim.Proc_id.Writer else Sim.Proc_id.Reader 1 in
      let finished = ref false and next = ref None in
      let on_events =
        List.iter (function
          | Core.Events.Broadcast m -> next := Some m
          | Core.Events.Read_done _ | Core.Events.Write_done _ -> finished := true)
      in
      let t0 = Spans.now_ns () in
      let first =
        match op with
        | Net.Client.Keyed.Write { value; _ } ->
            let res = P.writer_start !wr value in
            stamp acc "core.writer_start" t0;
            Result.map (fun (w, m) -> wr := w; m) res
        | Net.Client.Keyed.Read _ ->
            let res = P.reader_start !rd in
            stamp acc "core.reader_start" t0;
            Result.map (fun (x, m) -> rd := x; m) res
      in
      let rec round msg =
        next := None;
        for o = 0 to s - 1 do
          let req = roundtrip ~key ~sender msg in
          let t0 = Spans.now_ns () in
          let obj', reply = P.obj_handle objs.(o) ~src req in
          stamp r.objects "core.obj_handle" t0;
          objs.(o) <- obj';
          match reply with
          | None -> ()
          | Some rep ->
              let rep = roundtrip ~key ~sender rep in
              if not !finished then begin
                let t0 = Spans.now_ns () in
                if write then begin
                  let w, evs = P.writer_on_msg !wr ~obj:(o + 1) rep in
                  stamp ~count:false acc "core.writer_on_msg" t0;
                  wr := w;
                  on_events evs
                end
                else begin
                  let x, evs = P.reader_on_msg !rd ~obj:(o + 1) rep in
                  stamp ~count:false acc "core.reader_on_msg" t0;
                  rd := x;
                  on_events evs
                end
              end
        done;
        match !next with
        | Some m -> round m
        | None ->
            if not !finished then
              failwith "replay: operation stalled with every reply in"
      in
      (match first with
      | Ok m -> round m
      | Error e -> failwith ("replay: " ^ e));
      match sp with
      | Some tr when !op_span >= 0 -> Spans.leave tr !op_span
      | _ -> ())
    ops;
  { r with bytes = !bytes }
