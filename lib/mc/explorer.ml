module Make (P : Core.Protocol_intf.S) = struct
  type pure_byz = { rewrite : src:Sim.Proc_id.t -> P.msg -> P.msg list }

  type scenario = {
    cfg : Quorum.Config.t;
    writes : Core.Value.t list;
    reads : (int * int) list;
    sequential : bool;
        (* readers start only after every write completed: exercises the
           safety clause (non-concurrent reads) rather than the
           anything-goes concurrent case *)
    byz : (int * pure_byz) list;
    crashed : int list;
  }

  type violation = { kind : string; detail : string }

  type result = {
    explored : int;
    terminals : int;
    truncated : bool;
    violations : violation list;
  }

  (* Chronological operation log, replayed into a history at each
     terminal state.  The writer and each reader run one operation at a
     time, so a response closes its client's open operation. *)
  type log_event =
    | Inv_write of Core.Value.t
    | Resp_write of { rounds : int }
    | Inv_read of int  (* reader *)
    | Resp_read of { reader : int; value : Core.Value.t; rounds : int }

  type reader_slot = { rsm : P.reader; remaining : int }

  type state = {
    writer : P.writer;
    wqueue : Core.Value.t list;
    writing : bool;  (* a write is in progress *)
    readers : reader_slot Core.Ints.Map.t;
    objs : P.obj Core.Ints.Map.t;  (* honest automata (byz ones wrapped) *)
    inflight : (Sim.Proc_id.t * Sim.Proc_id.t * P.msg) list;  (* canonical *)
    log : log_event list;  (* reversed *)
  }

  let canonical inflight = List.sort Stdlib.compare inflight

  (* --- the history and its judgement ---------------------------------- *)

  (* Record the log's operations, its positions as their times, with
     the rounds each response reported; [open_op] holds each process's
     one open operation. *)
  let replay log =
    let module R = Histories.Recorder in
    let r = R.create () and open_op = Hashtbl.create 4 in
    let writer = Sim.Proc_id.Writer and reader j = Sim.Proc_id.Reader j in
    List.iteri
      (fun time -> function
        | Inv_write v ->
            Hashtbl.replace open_op writer
              (R.invoke_write r ~time (Core.Value.to_string v))
        | Resp_write { rounds } ->
            R.respond_write ~rounds r (Hashtbl.find open_op writer) ~time
        | Inv_read j ->
            Hashtbl.replace open_op (reader j) (R.invoke_read r ~time ~reader:j)
        | Resp_read { reader = j; value; rounds } ->
            R.respond_read ~rounds r (Hashtbl.find open_op (reader j)) ~time
              (Core.Value.to_result value))
      (List.rev log);
    R.ops r

  let pp_history ops =
    let pp_op = Histories.Op.pp ~pp_value:Format.pp_print_string in
    String.concat "" (List.map (Format.asprintf "%a; " pp_op) ops)

  (* --- transition function -------------------------------------------- *)

  (* Build the scenario's pure transition system: initial state, the
     delivery step, and the terminal-state property check — shared by the
     exhaustive DFS and the Monte-Carlo sampler. *)
  let machinery ~contract scenario =
    let cfg = scenario.cfg in
    let crashed = scenario.crashed in
    let send_to_objects st ~src m =
      (* broadcast, dropping messages to crashed objects at the source *)
      let sends =
        List.filter_map
          (fun i ->
            if List.mem i crashed then None
            else Some (src, Sim.Proc_id.Obj i, m))
          (List.init cfg.Quorum.Config.s (fun k -> k + 1))
      in
      { st with inflight = canonical (sends @ st.inflight) }
    in

    (* Start the next write if the writer is free. *)
    let writer_pump st =
      match (st.writing, st.wqueue) with
      | false, v :: rest -> (
          match P.writer_start st.writer v with
          | Error e -> invalid_arg ("Explorer: writer_start: " ^ e)
          | Ok (writer, m) ->
              let st =
                {
                  st with
                  writer;
                  wqueue = rest;
                  writing = true;
                  log = Inv_write v :: st.log;
                }
              in
              send_to_objects st ~src:Sim.Proc_id.Writer m)
      | _ -> st
    in
    let reader_pump j st =
      let slot = Core.Ints.Map.find j st.readers in
      if slot.remaining <= 0 then st
      else
        match P.reader_start slot.rsm with
        | Error _ -> st (* still busy *)
        | Ok (rsm, m) ->
            let slot = { rsm; remaining = slot.remaining - 1 } in
            let st =
              {
                st with
                readers = Core.Ints.Map.add j slot st.readers;
                log = Inv_read j :: st.log;
              }
            in
            send_to_objects st ~src:(Sim.Proc_id.Reader j) m
    in

    let pump_all_readers st =
      Core.Ints.Map.fold (fun j _ st -> reader_pump j st) st.readers st
    in
    let apply_writer_events st events =
      List.fold_left
        (fun st ev ->
          match ev with
          | Core.Events.Broadcast m -> send_to_objects st ~src:Sim.Proc_id.Writer m
          | Core.Events.Write_done { rounds } when st.writing ->
              let log = Resp_write { rounds } :: st.log in
              let st = writer_pump { st with writing = false; log } in
              (* In sequential scenarios the last write completing
                 releases the readers. *)
              if scenario.sequential && not st.writing then pump_all_readers st
              else st
          | Core.Events.Write_done _ | Core.Events.Read_done _ -> st)
        st events
    in
    let apply_reader_events j st events =
      List.fold_left
        (fun st ev ->
          match ev with
          | Core.Events.Broadcast m ->
              send_to_objects st ~src:(Sim.Proc_id.Reader j) m
          | Core.Events.Read_done { value; rounds } ->
              let log = Resp_read { reader = j; value; rounds } :: st.log in
              reader_pump j { st with log }
          | Core.Events.Write_done _ -> st)
        st events
    in

    (* Deliver one in-flight message, returning the successor state. *)
    let deliver st (src, dst, m) =
      let remove l x =
        let rec go acc = function
          | [] -> List.rev acc
          | y :: rest ->
              if Stdlib.compare x y = 0 then List.rev_append acc rest
              else go (y :: acc) rest
        in
        go [] l
      in
      let st = { st with inflight = remove st.inflight (src, dst, m) } in
      match dst with
      | Sim.Proc_id.Obj i ->
          let obj = Core.Ints.Map.find i st.objs in
          let obj', reply = P.obj_handle obj ~src m in
          let st = { st with objs = Core.Ints.Map.add i obj' st.objs } in
          let replies =
            match reply with
            | None -> []
            | Some r -> (
                match List.assoc_opt i scenario.byz with
                | None -> [ r ]
                | Some b -> b.rewrite ~src r)
          in
          {
            st with
            inflight =
              canonical
                (List.map (fun r -> (Sim.Proc_id.Obj i, src, r)) replies
                @ st.inflight);
          }
      | Sim.Proc_id.Writer -> (
          match src with
          | Sim.Proc_id.Obj i ->
              let writer, events = P.writer_on_msg st.writer ~obj:i m in
              apply_writer_events { st with writer } events
          | _ -> st)
      | Sim.Proc_id.Reader j -> (
          match src with
          | Sim.Proc_id.Obj i ->
              let slot = Core.Ints.Map.find j st.readers in
              let rsm, events = P.reader_on_msg slot.rsm ~obj:i m in
              let st =
                {
                  st with
                  readers = Core.Ints.Map.add j { slot with rsm } st.readers;
                }
              in
              apply_reader_events j st events
          | _ -> st)
    in

    (* Initial state: every client invokes its first operation. *)
    let init =
      let readers =
        List.fold_left
          (fun m (j, n) ->
            Core.Ints.Map.add j { rsm = P.reader_init ~cfg ~j; remaining = n } m)
          Core.Ints.Map.empty scenario.reads
      in
      let objs =
        List.fold_left
          (fun m i ->
            if List.mem i crashed then m
            else Core.Ints.Map.add i (P.obj_init ~cfg ~index:i) m)
          Core.Ints.Map.empty
          (List.init cfg.Quorum.Config.s (fun k -> k + 1))
      in
      let st =
        {
          writer = P.writer_init ~cfg;
          wqueue = scenario.writes;
          writing = false;
          readers;
          objs;
          inflight = [];
          log = [];
        }
      in
      let st = writer_pump st in
      if scenario.sequential && st.writing then st
      else List.fold_left (fun st (j, _) -> reader_pump j st) st scenario.reads
    in

    (* Terminal-state checks: the history meets the contract, and no
       operation is pending.  Pending operations are read off the
       automata, not the history, which does not show the ones never
       invoked. *)
    let check_terminal st =
      let ops = replay st.log in
      let history () = pp_history ops in
      let pp = Histories.Checks.pp_violation ~pp_value:Format.pp_print_string in
      let found (v : _ Histories.Checks.violation) =
        let detail = Format.asprintf "%a | history: %s" pp v (history ()) in
        { kind = v.rule; detail }
      in
      let j =
        Histories.Checks.judge contract ~equal:String.equal ~quiescent:false ops
      in
      let pending =
        st.writing || st.wqueue <> []
        || Core.Ints.Map.exists
             (fun _ slot ->
               (* a read left, or one still in progress *)
               slot.remaining > 0 || Result.is_error (P.reader_start slot.rsm))
             st.readers
      in
      List.map found (j.claimed @ j.rounds)
      @
      if not pending then []
      else
        let detail = "operations still pending at quiescence | history: " in
        [ { kind = "wait-freedom"; detail = detail ^ history () } ]
    in

    (init, deliver, check_terminal)

  (* Keeps the first ten distinct violations noted, in order. *)
  let violation_log () =
    let seen = Hashtbl.create 16 and kept = ref [] in
    let note =
      List.iter (fun v ->
          if not (Hashtbl.mem seen (v.kind, v.detail)) then begin
            Hashtbl.add seen (v.kind, v.detail) ();
            if List.length !kept < 10 then kept := v :: !kept
          end)
    in
    (note, fun () -> List.rev !kept)

  (* Exhaustive DFS with memoization on a structural fingerprint. *)
  let check ?(max_states = 200_000) ~contract scenario =
    let init, deliver, check_terminal = machinery ~contract scenario in
    let visited = Hashtbl.create (min max_states 65536) in
    let fingerprint st =
      Marshal.to_string
        (st.writer, st.wqueue, st.writing, st.readers, st.objs, st.inflight,
         st.log)
        []
    in
    let note, violations = violation_log () in
    let explored = ref 0 in
    let terminals = ref 0 in
    let truncated = ref false in
    let stack = ref [ init ] in
    while !stack <> [] && not !truncated do
      match !stack with
      | [] -> ()
      | st :: rest ->
          stack := rest;
          let fp = fingerprint st in
          if not (Hashtbl.mem visited fp) then begin
            Hashtbl.add visited fp ();
            incr explored;
            if !explored >= max_states then truncated := true;
            match st.inflight with
            | [] ->
                incr terminals;
                note (check_terminal st)
            | msgs ->
                let choices =
                  List.sort_uniq Stdlib.compare msgs
                in
                List.iter (fun c -> stack := deliver st c :: !stack) choices
          end
    done;
    {
      explored = !explored;
      terminals = !terminals;
      truncated = !truncated;
      violations = violations ();
    }

  (* Monte-Carlo sampler: follow [walks] uniformly random schedules to
     quiescence, checking every endpoint.  Each walk draws from its own
     PRNG, split off the seed stream up front, so walk [i] samples the
     same schedule whatever the domain count — the batch fans across the
     pool and reduces (step sum, violation dedup) in walk order. *)
  let random_walks ?jobs ?(walks = 1000) ~contract ~seed scenario =
    let init, deliver, check_terminal = machinery ~contract scenario in
    let base = Sim.Prng.create ~seed in
    let walk_rngs = Array.init walks (fun _ -> Sim.Prng.split base) in
    let run_walk i =
      let rng = walk_rngs.(i) in
      let st = ref init in
      let steps = ref 0 in
      let continue = ref true in
      while !continue do
        match !st.inflight with
        | [] -> continue := false
        | msgs ->
            incr steps;
            let choice = Sim.Prng.pick rng (Array.of_list msgs) in
            st := deliver !st choice
      done;
      (!steps, check_terminal !st)
    in
    let results = Exec.Pool.init ?jobs walks run_walk in
    let note, violations = violation_log () in
    let steps = ref 0 in
    Array.iter
      (fun (s, vs) ->
        steps := !steps + s;
        note vs)
      results;
    {
      explored = !steps;
      terminals = walks;
      truncated = false;
      violations = violations ();
    }
end
