module Make (P : Protocol_intf.S) = struct
  type fault_plan = {
    crashes : (Sim.Proc_id.t * int) list;
    byzantine : (int * P.msg Byz.factory) list;
  }

  let no_faults = { crashes = []; byzantine = [] }

  type chaos_event =
    | Chaos_crash of { proc : Sim.Proc_id.t; at : int }
    | Chaos_recover of { obj : int; at : int; wipe : bool }
    | Chaos_block of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        from_ : int;
        until : int;
      }
    | Chaos_isolate of { obj : int; from_ : int; until : int }
    | Chaos_duplicate of {
        src : Sim.Proc_id.t;
        dst : Sim.Proc_id.t;
        copies : int;
        from_ : int;
        until : int;
      }
    | Chaos_switch of { obj : int; at : int; factory : P.msg Byz.factory }

  type outcome = {
    op : Schedule.op;
    invoked_at : int;
    completed_at : int;
    rounds : int;
    result : Value.t option;
  }

  type report = {
    history : string Histories.Op.t list;
    outcomes : outcome list;
    trace : Sim.Trace.t option;
    spans : Obs.Span.t list;
    words_to_readers : int;
    messages_delivered : int;
    events_processed : int;
    quiescent : bool;
    final_time : int;
  }

  let run ?(max_events = 1_000_000) ?(trace = false) ?(chaos = []) ?metrics
      ?clock ~cfg ~seed ~delay ~faults schedule =
    let tr = if trace then Some (Sim.Trace.create ()) else None in
    let eng =
      Sim.Engine.create ?trace:tr ~msg_info:P.msg_info ?metrics
        ~classify:P.msg_class ?clock ~seed ~delay ()
    in
    let object_ids = Sim.Proc_id.objects ~s:cfg.Quorum.Config.s in
    let recorder : string Histories.Recorder.t = Histories.Recorder.create () in
    let outcomes = ref [] in
    let words_to_readers = ref 0 in
    (* Spans are numbered in invocation order across all processes. *)
    let spans = ref [] and span_ids = ref 0 in
    let trace_pos () = match tr with Some tr -> Sim.Trace.length tr | None -> 0 in

    (* Base objects: one object host each, registered once as the
       object's handler; Byzantine casts and restarts act on the host.
       Its reply cache never fires: the channels lose no reply, and a
       duplicated request stays unanswered. *)
    let hosts =
      Array.init cfg.Quorum.Config.s (fun k ->
          Object_host.create (module P)
            ~answers:(fun ~request:_ _ -> false)
            ~cfg ~index:(k + 1))
    in
    let byzantine i factory =
      let rng = Sim.Prng.split (Sim.Engine.rng eng) in
      Object_host.byzantine hosts.(i - 1) (factory ~cfg ~index:i ~rng)
    in
    List.iter
      (fun id ->
        let i = Sim.Proc_id.obj_index id in
        Sim.Engine.register eng id (fun env ->
            List.iter
              (fun (dst, m) -> Sim.Engine.send eng ~src:id ~dst m)
              (Object_host.handle hosts.(i - 1) ~key:0 ~src:env.Sim.Engine.src
                 ~now:(Sim.Engine.now eng) env.Sim.Engine.msg));
        Option.iter (byzantine i) (List.assoc_opt i faults.byzantine))
      object_ids;

    (* The clients: one round driver per paper process, on the single
       register (key 0 on objects 1..S).  Every fresh round goes to all
       S objects in order and no round has a deadline, so each round is
       a broadcast, and the simulator's channels deliver it. *)
    let map = Shard.Map.single cfg in
    let client id ~reader ~readers =
      let host =
        {
          Driver.send =
            (fun ~slot ~key:_ ~sender:_ m ->
              Sim.Engine.send eng ~src:id ~dst:(Sim.Proc_id.Obj (slot + 1)) m);
          connected = (fun _ -> true);
          unanswered = (fun _ -> 0);
          answers = (fun ~request:_ _ -> true);
          start_span =
            (fun kind ~proc ~now ->
              let s =
                Obs.Span.create ~id:!span_ids kind ~proc ~now
                  ~trace_pos:(trace_pos ())
              in
              incr span_ids;
              spans := s :: !spans;
              s);
          trace_pos;
        }
      in
      let d =
        Driver.create (module P) ~host ~map ~fanout:cfg.Quorum.Config.s ~reader
          ~readers
      in
      (* One operation at a time: [pending] is the open one's history
         handle, schedule entry and invocation time. *)
      let pending = ref None in
      Driver.load d [||] ~on_event:(function
        | Driver.Invoke { op; reader; at_us; _ } ->
            let handle, op =
              match Driver.op d op with
              | Driver.Write { value; _ } ->
                  ( Histories.Recorder.invoke_write recorder ~time:at_us
                      (Option.value (Value.payload value) ~default:""),
                    Schedule.Write value )
              | Driver.Read _ ->
                  ( Histories.Recorder.invoke_read recorder ~time:at_us ~reader,
                    Schedule.Read { reader } )
            in
            pending := Some (handle, op, at_us)
        | Driver.Respond { write; outcome = Error e; _ } ->
            invalid_arg
              (Printf.sprintf "Scenario: %s_start: %s"
                 (if write then "writer" else "reader")
                 e)
        | Driver.Respond { at_us; outcome = Ok o; _ } ->
            let handle, op, invoked_at = Option.get !pending in
            let rounds = o.rounds in
            (match o.value with
            | None ->
                Histories.Recorder.respond_write ~rounds recorder handle
                  ~time:at_us
            | Some v ->
                Histories.Recorder.respond_read ~rounds recorder handle
                  ~time:at_us (Value.to_result v));
            outcomes :=
              {
                op;
                invoked_at;
                completed_at = at_us;
                rounds = o.rounds;
                result = o.value;
              }
              :: !outcomes);
      let lane = if readers = 0 then Driver.writer else 0 in
      Sim.Engine.register eng id (fun env ->
          match env.Sim.Engine.src with
          | Sim.Proc_id.Obj i ->
              if readers > 0 then
                words_to_readers :=
                  !words_to_readers + P.msg_size_words env.Sim.Engine.msg;
              let now = Sim.Engine.now eng in
              Driver.deliver d ~now ~slot:(i - 1) ~key:0 ~lane
                env.Sim.Engine.msg;
              Driver.pump d ~now
          | Sim.Proc_id.Writer | Sim.Proc_id.Reader _ -> ());
      d
    in
    let writer = client Sim.Proc_id.Writer ~reader:0 ~readers:0 in
    let readers = Hashtbl.create 8 in
    List.iter
      (fun j ->
        Hashtbl.replace readers j
          (client (Sim.Proc_id.Reader j) ~reader:j ~readers:1))
      (Schedule.reader_indices schedule);

    (* Fault plan. *)
    List.iter
      (fun (proc, time) ->
        Sim.Engine.at eng ~time (fun () -> Sim.Engine.crash eng proc))
      faults.crashes;

    (* Scripted chaos events. *)
    List.iter
      (function
        | Chaos_crash { proc; at } ->
            Sim.Engine.at eng ~time:at (fun () -> Sim.Engine.crash eng proc)
        | Chaos_recover { obj; at; wipe } ->
            Sim.Engine.at eng ~time:at (fun () ->
                Sim.Engine.recover eng (Sim.Proc_id.Obj obj);
                Object_host.restart hosts.(obj - 1) ~wipe)
        | Chaos_block { src; dst; from_; until } ->
            Sim.Engine.at eng ~time:from_ (fun () ->
                Sim.Engine.block_link eng ~src ~dst);
            Sim.Engine.at eng ~time:until (fun () ->
                Sim.Engine.unblock_link eng ~src ~dst)
        | Chaos_isolate { obj; from_; until } ->
            let id = Sim.Proc_id.Obj obj in
            Sim.Engine.at eng ~time:from_ (fun () ->
                Sim.Engine.block_process eng id);
            Sim.Engine.at eng ~time:until (fun () ->
                Sim.Engine.unblock_process eng id)
        | Chaos_duplicate { src; dst; copies; from_; until } ->
            Sim.Engine.at eng ~time:from_ (fun () ->
                Sim.Engine.set_duplication eng ~src ~dst ~copies);
            Sim.Engine.at eng ~time:until (fun () ->
                Sim.Engine.clear_duplication eng ~src ~dst)
        | Chaos_switch { obj; at; factory } ->
            Sim.Engine.at eng ~time:at (fun () -> byzantine obj factory))
      chaos;

    (* Operation schedule. *)
    List.iter
      (fun (time, op) ->
        Sim.Engine.at eng ~time (fun () ->
            let d, kop =
              match op with
              | Schedule.Write value ->
                  (writer, Driver.Write { key = 0; value })
              | Schedule.Read { reader } ->
                  (Hashtbl.find readers reader, Driver.Read { key = 0 })
            in
            Driver.submit d kop;
            Driver.pump d ~now:(Sim.Engine.now eng)))
      schedule;

    let events_processed = Sim.Engine.run ~max_events eng in
    let spans = List.rev !spans in
    (* Per-operation metrics derived from the spans, so every consumer
       (CLI tables, campaign cells, bench) aggregates the same way. *)
    Option.iter
      (fun m ->
        Obs.Metrics.add m "reader.words" !words_to_readers;
        let family kind =
          Driver.op_meters m kind
            ~latency:(".latency", Obs.Metrics.latency_bounds)
        in
        let reads = family "read" and writes = family "write" in
        List.iter
          (fun (s : Obs.Span.t) ->
            (match s.kind with Obs.Span.Read _ -> reads | Write -> writes) s)
          spans)
      metrics;
    {
      history = Histories.Recorder.ops recorder;
      outcomes = List.rev !outcomes;
      trace = tr;
      spans;
      words_to_readers = !words_to_readers;
      messages_delivered = Sim.Engine.delivered_count eng;
      events_processed;
      quiescent = events_processed < max_events;
      final_time = Sim.Engine.now eng;
    }
end
