open Core

type msg =
  | Write_req of { ts : int; v : Value.t }
  | Write_ack of { ts : int }
  | Update of { ts : int; v : Value.t }  (* server push to readers *)
  | Read_req of { rid : int }
  | Read_ack of { rid : int; ts : int; v : Value.t }

let msg_info = function
  | Write_req { ts; _ } -> Printf.sprintf "WRITE(ts=%d)" ts
  | Write_ack { ts } -> Printf.sprintf "WRITE_ACK(ts=%d)" ts
  | Update { ts; _ } -> Printf.sprintf "PUSH(ts=%d)" ts
  | Read_req { rid } -> Printf.sprintf "READ(rid=%d)" rid
  | Read_ack { rid; ts; _ } -> Printf.sprintf "READ_ACK(rid=%d,ts=%d)" rid ts

type read_mode = Pushed | Polled

type outcome = {
  op : Schedule.op;
  invoked_at : int;
  completed_at : int;
  mode : read_mode option;
  result : Value.t option;
}

type report = {
  history : string Histories.Op.t list;
  outcomes : outcome list;
  pushes_delivered : int;
  zero_round_reads : int;
  polled_reads : int;
}

(* Highest (ts, v) pair endorsed by at least [threshold] distinct servers
   in the per-server latest-knowledge map. *)
let best_endorsed ~threshold known =
  let counts = Hashtbl.create 8 in
  Ints.Map.iter
    (fun _ pair ->
      Hashtbl.replace counts pair
        (1 + Option.value (Hashtbl.find_opt counts pair) ~default:0))
    known;
  Hashtbl.fold
    (fun (ts, v) n best ->
      match best with
      | Some (bts, _) when bts >= ts -> best
      | _ -> if n >= threshold then Some (ts, v) else best)
    counts None

let run ?(zero_round = true) ?freeze_pushes_at ?unfreeze_pushes_at
    ?(byz_forgers = []) ?(crashes = []) ?(max_events = 1_000_000) ~cfg ~seed
    ~delay schedule =
  let eng = Sim.Engine.create ~msg_info ~seed ~delay () in
  let s = cfg.Quorum.Config.s in
  let b = cfg.Quorum.Config.b in
  let quorum = Quorum.Config.quorum cfg in
  let servers = Sim.Proc_id.objects ~s in
  let reader_indices = Schedule.reader_indices schedule in
  let readers = List.map (fun j -> Sim.Proc_id.Reader j) reader_indices in
  let recorder : string Histories.Recorder.t = Histories.Recorder.create () in
  let outcomes = ref [] in
  let pushes = ref 0 in
  let zero_round_reads = ref 0 in
  let polled_reads = ref 0 in

  (* --- servers: apply writes, ack, push to every reader ---------------- *)
  List.iter
    (fun id ->
      let i = Sim.Proc_id.obj_index id in
      let forger = List.mem i byz_forgers in
      let ts = ref 0 and v = ref Value.bottom in
      Sim.Engine.register eng id (fun env ->
          match env.Sim.Engine.msg with
          | Write_req { ts = ts'; v = v' } ->
              if ts' > !ts then begin
                ts := ts';
                v := v'
              end;
              Sim.Engine.send eng ~src:id ~dst:env.Sim.Engine.src
                (Write_ack { ts = ts' });
              (* the server-centric liberty: unsolicited pushes *)
              let push_ts, push_v =
                if forger then (ts' + 100, Value.v "forged") else (!ts, !v)
              in
              List.iter
                (fun r ->
                  Sim.Engine.send eng ~src:id ~dst:r
                    (Update { ts = push_ts; v = push_v }))
                readers
          | Read_req { rid } ->
              let ts, v =
                if forger then (!ts + 100, Value.v "forged") else (!ts, !v)
              in
              Sim.Engine.send eng ~src:id ~dst:env.Sim.Engine.src
                (Read_ack { rid; ts; v })
          | Write_ack _ | Update _ | Read_ack _ -> ()))
    servers;

  (* --- writer ----------------------------------------------------------- *)
  let wts = ref 0 in
  let wqueue = Queue.create () in
  let winflight = ref None in
  let wacks = ref Ints.Set.empty in
  let writer_try_start () =
    if Option.is_none !winflight && not (Queue.is_empty wqueue) then begin
      let v = Queue.pop wqueue in
      incr wts;
      let now = Sim.Engine.now eng in
      let payload = Option.value (Value.payload v) ~default:"" in
      let handle = Histories.Recorder.invoke_write recorder ~time:now payload in
      winflight := Some (v, handle, now, !wts);
      wacks := Ints.Set.empty;
      List.iter
        (fun dst ->
          Sim.Engine.send eng ~src:Sim.Proc_id.Writer ~dst
            (Write_req { ts = !wts; v }))
        servers
    end
  in
  Sim.Engine.register eng Sim.Proc_id.Writer (fun env ->
      match (env.Sim.Engine.msg, env.Sim.Engine.src, !winflight) with
      | Write_ack { ts }, Sim.Proc_id.Obj i, Some (v, handle, invoked_at, wts')
        when ts = wts' ->
          wacks := Ints.Set.add i !wacks;
          if Ints.Set.cardinal !wacks >= quorum then begin
            let now = Sim.Engine.now eng in
            Histories.Recorder.respond_write recorder handle ~time:now;
            outcomes :=
              {
                op = Schedule.Write v;
                invoked_at;
                completed_at = now;
                mode = None;
                result = None;
              }
              :: !outcomes;
            winflight := None;
            writer_try_start ()
          end
      | _ -> ());

  (* --- readers ----------------------------------------------------------- *)
  let reader_starters = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let id = Sim.Proc_id.Reader j in
      let known = ref Ints.Map.empty in  (* server -> latest (ts, v) *)
      let queue = ref 0 in
      let rid = ref 0 in
      let inflight = ref None in  (* handle, invoked_at, poll replies *)
      let learn i (ts, v) =
        match Ints.Map.find_opt i !known with
        | Some (ts', _) when ts' >= ts -> ()
        | _ -> known := Ints.Map.add i (ts, v) !known
      in
      let finish handle invoked_at mode value =
        let now = Sim.Engine.now eng in
        Histories.Recorder.respond_read recorder handle ~time:now
          (Value.to_result value);
        (match mode with
        | Pushed -> incr zero_round_reads
        | Polled -> incr polled_reads);
        outcomes :=
          {
            op = Schedule.Read { reader = j };
            invoked_at;
            completed_at = now;
            mode = Some mode;
            result = Some value;
          }
          :: !outcomes;
        inflight := None
      in
      let rec try_start () =
        if Option.is_none !inflight && !queue > 0 then begin
          decr queue;
          let now = Sim.Engine.now eng in
          let handle =
            Histories.Recorder.invoke_read recorder ~time:now ~reader:j
          in
          match
            if zero_round then best_endorsed ~threshold:(b + 1) !known
            else None
          with
          | Some (_, v) ->
              (* answered from pushed state: zero communication *)
              finish handle now Pushed v;
              try_start ()
          | None ->
              incr rid;
              inflight := Some (handle, now, ref Ints.Set.empty);
              List.iter
                (fun dst ->
                  Sim.Engine.send eng ~src:id ~dst (Read_req { rid = !rid }))
                servers
        end
      in
      Hashtbl.replace reader_starters j (fun () ->
          incr queue;
          try_start ());
      Sim.Engine.register eng id (fun env ->
          match (env.Sim.Engine.msg, env.Sim.Engine.src) with
          | Update { ts; v }, Sim.Proc_id.Obj i ->
              incr pushes;
              learn i (ts, v)
          | Read_ack { rid = rid'; ts; v }, Sim.Proc_id.Obj i -> (
              learn i (ts, v);
              match !inflight with
              | Some (handle, invoked_at, replies) when rid' = !rid ->
                  replies := Ints.Set.add i !replies;
                  if Ints.Set.cardinal !replies >= quorum then begin
                    let value =
                      match best_endorsed ~threshold:(b + 1) !known with
                      | Some (_, v) -> v
                      | None -> Value.bottom
                    in
                    finish handle invoked_at Polled value;
                    try_start ()
                  end
              | _ -> ())
          | _ -> ()))
    reader_indices;

  (* --- faults and the push-delaying adversary --------------------------- *)
  List.iter
    (fun (proc, time) ->
      Sim.Engine.at eng ~time (fun () -> Sim.Engine.crash eng proc))
    crashes;
  let block_all () =
    List.iter
      (fun srv ->
        List.iter
          (fun r -> Sim.Engine.block_link eng ~src:srv ~dst:r)
          readers)
      servers
  in
  let unblock_all () =
    List.iter
      (fun srv ->
        List.iter
          (fun r -> Sim.Engine.unblock_link eng ~src:srv ~dst:r)
          readers)
      servers
  in
  Option.iter (fun time -> Sim.Engine.at eng ~time block_all) freeze_pushes_at;
  Option.iter (fun time -> Sim.Engine.at eng ~time unblock_all) unfreeze_pushes_at;

  (* --- schedule ----------------------------------------------------------- *)
  List.iter
    (fun (time, op) ->
      Sim.Engine.at eng ~time (fun () ->
          match op with
          | Schedule.Write v ->
              Queue.push v wqueue;
              writer_try_start ()
          | Schedule.Read { reader } -> (Hashtbl.find reader_starters reader) ()))
    schedule;

  ignore (Sim.Engine.run ~max_events eng);
  {
    history = Histories.Recorder.ops recorder;
    outcomes = List.rev !outcomes;
    pushes_delivered = !pushes;
    zero_round_reads = !zero_round_reads;
    polled_reads = !polled_reads;
  }
