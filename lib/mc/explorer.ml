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

  (* Chronological operation log; positions double as precedence stamps. *)
  type log_event =
    | Inv_write of int * Core.Value.t  (* write index k, value *)
    | Resp_write of int
    | Inv_read of int * int  (* reader, read id *)
    | Resp_read of int * int * Core.Value.t

  type reader_slot = { rsm : P.reader; remaining : int; rid : int }

  type state = {
    writer : P.writer;
    wqueue : Core.Value.t list;
    winflight : int option;  (* index of the write in progress *)
    wcount : int;  (* writes invoked so far *)
    readers : reader_slot Core.Ints.Map.t;
    objs : P.obj Core.Ints.Map.t;  (* honest automata (byz ones wrapped) *)
    inflight : (Sim.Proc_id.t * Sim.Proc_id.t * P.msg) list;  (* canonical *)
    log : log_event list;  (* reversed *)
  }

  let canonical inflight = List.sort Stdlib.compare inflight

  (* --- history reconstruction and property checking ------------------- *)

  let value_to_result = function
    | Core.Value.Bottom -> Histories.Op.Bottom
    | Core.Value.V s -> Histories.Op.Value s

  let history_of_log log =
    let events = List.rev log in
    let stamped = List.mapi (fun stamp e -> (stamp, e)) events in
    let find_resp pred =
      List.find_map (fun (stamp, e) -> if pred e then Some stamp else None) stamped
    in
    List.filter_map
      (fun (stamp, e) ->
        match e with
        | Inv_write (k, v) ->
            let resp =
              find_resp (function Resp_write k' -> k' = k | _ -> false)
            in
            Some
              {
                Histories.Op.id = stamp;
                action =
                  Histories.Op.Write
                    { index = k; value = Core.Value.to_string v };
                invoked_at = stamp;
                invoked_stamp = stamp;
                responded_at = resp;
                responded_stamp = resp;
              }
        | Inv_read (j, rid) ->
            let result =
              List.find_map
                (fun (_, e) ->
                  match e with
                  | Resp_read (j', rid', v) when j' = j && rid' = rid ->
                      Some (value_to_result v)
                  | _ -> None)
                stamped
            in
            let resp =
              find_resp (function
                | Resp_read (j', rid', _) -> j' = j && rid' = rid
                | _ -> false)
            in
            Some
              {
                Histories.Op.id = stamp;
                action = Histories.Op.Read { reader = j; result };
                invoked_at = stamp;
                invoked_stamp = stamp;
                responded_at = resp;
                responded_stamp = resp;
              }
        | Resp_write _ | Resp_read _ -> None)
      stamped

  let pp_history ops =
    Format.asprintf "%a"
      (fun ppf ops ->
        List.iter
          (fun op ->
            Format.fprintf ppf "%a; "
              (Histories.Op.pp ~pp_value:Format.pp_print_string)
              op)
          ops)
      ops

  (* --- transition function -------------------------------------------- *)

  (* Build the scenario's pure transition system: initial state, the
     delivery step, and the terminal-state property check — shared by the
     exhaustive DFS and the Monte-Carlo sampler. *)
  let machinery ~claim scenario =
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
    let rec writer_pump st =
      match (st.winflight, st.wqueue) with
      | None, v :: rest ->
          let k = st.wcount + 1 in
          (match P.writer_start st.writer v with
          | Error e -> invalid_arg ("Explorer: writer_start: " ^ e)
          | Ok (writer, m) ->
              let st =
                {
                  st with
                  writer;
                  wqueue = rest;
                  winflight = Some k;
                  wcount = k;
                  log = Inv_write (k, v) :: st.log;
                }
              in
              writer_pump (send_to_objects st ~src:Sim.Proc_id.Writer m))
      | _ -> st
    in
    let reader_pump j st =
      let slot = Core.Ints.Map.find j st.readers in
      if slot.remaining <= 0 then st
      else
        match P.reader_start slot.rsm with
        | Error _ -> st (* still busy *)
        | Ok (rsm, m) ->
            let rid = slot.rid + 1 in
            let slot = { rsm; remaining = slot.remaining - 1; rid } in
            let st =
              {
                st with
                readers = Core.Ints.Map.add j slot st.readers;
                log = Inv_read (j, rid) :: st.log;
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
          | Core.Events.Write_done _ -> (
              match st.winflight with
              | Some k ->
                  let st =
                    writer_pump
                      { st with winflight = None; log = Resp_write k :: st.log }
                  in
                  (* In sequential scenarios the last write completing
                     releases the readers. *)
                  if scenario.sequential && st.winflight = None then
                    pump_all_readers st
                  else st
              | None -> st)
          | Core.Events.Read_done _ -> st)
        st events
    in
    let apply_reader_events j st events =
      List.fold_left
        (fun st ev ->
          match ev with
          | Core.Events.Broadcast m ->
              send_to_objects st ~src:(Sim.Proc_id.Reader j) m
          | Core.Events.Read_done { value; _ } ->
              let slot = Core.Ints.Map.find j st.readers in
              let st =
                { st with log = Resp_read (j, slot.rid, value) :: st.log }
              in
              reader_pump j st
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
            Core.Ints.Map.add j
              { rsm = P.reader_init ~cfg ~j; remaining = n; rid = 0 }
              m)
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
          winflight = None;
          wcount = 0;
          readers;
          objs;
          inflight = [];
          log = [];
        }
      in
      let st = writer_pump st in
      if scenario.sequential && st.winflight <> None then st
      else List.fold_left (fun st (j, _) -> reader_pump j st) st scenario.reads
    in

    (* Terminal-state property checks. *)
    let check_terminal st =
      let ops = history_of_log st.log in
      let equal = String.equal in
      let consistency = Histories.Checks.check claim ~equal ops in
      let consistency_violations =
        List.map
          (fun v ->
            {
              kind = v.Histories.Checks.rule;
              detail =
                Format.asprintf "%a | history: %s"
                  (Histories.Checks.pp_violation ~pp_value:Format.pp_print_string)
                  v (pp_history ops);
            })
          consistency
      in
      let incomplete =
        Option.is_some st.winflight
        || st.wqueue <> []
        || Core.Ints.Map.exists
             (fun _ slot ->
               slot.remaining > 0
               ||
               match P.reader_start slot.rsm with
               | Error _ -> true (* a read is still in progress *)
               | Ok _ -> false)
             st.readers
      in
      let wf_violations =
        if incomplete then
          [
            {
              kind = "wait-freedom";
              detail =
                "operations still pending at quiescence | history: "
                ^ pp_history ops;
            };
          ]
        else []
      in
      consistency_violations @ wf_violations
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
  let check ?(max_states = 200_000) ~claim scenario =
    let init, deliver, check_terminal = machinery ~claim scenario in
    let visited = Hashtbl.create (min max_states 65536) in
    let fingerprint st =
      Marshal.to_string
        (st.writer, st.wqueue, st.winflight, st.readers, st.objs, st.inflight,
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
  let random_walks ?jobs ?(walks = 1000) ~claim ~seed scenario =
    let init, deliver, check_terminal = machinery ~claim scenario in
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
