type opts = {
  tick_us : int;
  client : Client.opts;
  transport : [ `Unix | `Tcp ];
}

(* Patience arithmetic: an operation survives [retries] deadlines of
   [deadline] seconds each, so total patience is ~1.8 s — comfortably
   past the longest window a [large]-budget plan can script at the
   default tick (3000 ticks x 500 µs = 1.5 s).  Transient outages stall
   operations; only beyond-budget faults kill them. *)
let default_opts =
  {
    tick_us = 500;
    client = { Client.deadline = 0.3; retries = 6; backoff = 0.02 };
    transport = `Unix;
  }

let protocol_of : Fault.Campaign.protocol -> Protocols.t option = function
  | Safe -> Some Protocols.safe
  | Regular -> Some Protocols.regular
  | Regular_opt -> Some Protocols.regular_opt
  | Regular_gc ->
      Some (Protocols.regular_gc ~readers:Fault.Campaign.workload_readers)
  | Abd -> Some Protocols.abd
  | Abd_atomic -> Some Protocols.abd_atomic
  | Nonmod | Auth | Fast_safe | Naive_fast -> None

(* ----- compiling a plan into live faults --------------------------------- *)

(* What a plan compiles to before the cluster exists: server events at
   virtual ticks, and per-object rules whose windows are still in
   virtual ticks (scaled once the run's wall-clock base is known;
   [max_int] = until the run ends). *)

let vrule obj dir sender from_us until_us act =
  (obj, { Chaos.dir; sender; from_us; until_us; act })

(* The live rendering of the symbolic Byzantine kinds: [Mute] silences
   an object's replies, the lying kinds scramble them past the frame
   header (the peer's total decoder rejects each one — a replica
   speaking garbage), [Flaky] is a silence window.  All count inside
   the paper's [t]/[b] budget exactly as in the simulator. *)
let byz_rules ~obj ~from_ kind =
  let reply_rule from_ until act =
    [ vrule obj Chaos.To_client None from_ until act ]
  in
  match kind with
  | Fault.Plan.Mute -> reply_rule from_ max_int Chaos.Drop
  | Fault.Plan.Flaky { down_from; down_until } ->
      reply_rule (max from_ down_from) down_until Chaos.Drop
  | Fault.Plan.Forge | Fault.Plan.Replay | Fault.Plan.Simulate
  | Fault.Plan.Defame | Fault.Plan.Garbage ->
      reply_rule from_ max_int Chaos.Corrupt

(* Live links are client<->server only: a block between two clients
   (or two objects) has no wire to act on, mirroring the simulator where
   no such messages flow in these protocols. *)
let link ~src ~dst ~from_ ~until act =
  match (src, dst) with
  | (Fault.Plan.W | Fault.Plan.R _), Fault.Plan.O i ->
      [ vrule i Chaos.To_server (Some (Fault.Plan.proc_id src)) from_ until act ]
  | Fault.Plan.O i, (Fault.Plan.W | Fault.Plan.R _) ->
      [ vrule i Chaos.To_client (Some (Fault.Plan.proc_id dst)) from_ until act ]
  | _ -> []

(* The plan's crashes and restarts, and its rules, in action order. *)
let compile (plan : Fault.Plan.t) =
  let timed, vrules =
    List.fold_left
      (fun (timed, vrules) -> function
        | Fault.Plan.Byz { obj; kind } ->
            (timed, byz_rules ~obj ~from_:0 kind @ vrules)
        | Fault.Plan.Switch { obj; at; kind } ->
            (timed, byz_rules ~obj ~from_:at kind @ vrules)
        | Fault.Plan.Crash { obj; at } ->
            ((at, fun c -> Cluster.crash c obj) :: timed, vrules)
        | Fault.Plan.Recover { obj; at; wipe } ->
            let restart c =
              (* a plan may recover an object that is still up *)
              match Cluster.restart ~wipe c obj with
              | Ok () | Error (`Still_alive _) -> ()
            in
            ((at, restart) :: timed, vrules)
        | Fault.Plan.Block { src; dst; from_; until } ->
            (timed, link ~src ~dst ~from_ ~until Chaos.Drop @ vrules)
        | Fault.Plan.Isolate { obj; from_; until } ->
            ( timed,
              vrule obj Chaos.To_server None from_ until Chaos.Drop
              :: vrule obj Chaos.To_client None from_ until Chaos.Drop
              :: vrules )
        | Fault.Plan.Duplicate { src; dst; copies; from_; until } ->
            (timed, link ~src ~dst ~from_ ~until (Chaos.Duplicate copies) @ vrules))
      ([], []) plan.actions
  in
  (List.rev timed, List.rev vrules)

(* ----- running one (seed, plan) ------------------------------------------ *)

let scale_rule ~base ~tick_us (r : Chaos.rule) =
  {
    r with
    from_us = base + (r.from_us * tick_us);
    until_us =
      (if r.until_us = max_int then max_int else base + (r.until_us * tick_us));
  }

let run ?metrics ~opts protocol ~cfg ~seed plan =
  let pack =
    match protocol_of protocol with
    | Some p -> p
    | None ->
        failwith
          (Printf.sprintf "live backend: protocol %s has no wire codec"
             (Fault.Campaign.protocol_name protocol))
  in
  let timed, vrules = compile plan in
  let schedule = Fault.Campaign.workload ~seed ~plan in
  let readers = Fault.Campaign.workload_readers in
  let cluster =
    Cluster.start ~opts:opts.client ~transport:opts.transport ~protocol:pack
      ~cfg ()
  in
  (* One engine per paper process, so each runs its ops in its own
     order and chaos rules aimed at one process match only its
     frames. *)
  let writer, reader_engines = Cluster.processes cluster ~readers in
  Fun.protect ~finally:(fun () -> Cluster.stop cluster) @@ fun () ->
  (* Virtual tick 0 is anchored a small margin into the future so rule
     installation finishes before any window can open. *)
  let base = Cluster.now_us cluster + 20_000 in
  let tick_at at = base + (at * opts.tick_us) in
  for i = 1 to cfg.Quorum.Config.s do
    let mine = List.filter (fun (obj, _) -> obj = i) vrules in
    if mine <> [] then
      Cluster.set_rules cluster i
        (List.map (fun (_, r) -> scale_rule ~base ~tick_us:opts.tick_us r) mine)
  done;
  (* One timeline of the plan's crashes and restarts and every process's
     ops, in tick order; at a shared tick the faults go first, as the
     simulator schedules them.  An op is submitted at its tick and starts
     once its process's previous op has responded. *)
  let fault (at, act) = (tick_at at, fun () -> act cluster) in
  let op (at, op) =
    let engine, kop =
      match op with
      | Core.Schedule.Write value ->
          (writer, Client.Keyed.Write { key = 0; value })
      | Core.Schedule.Read { reader } ->
          (reader_engines.(reader - 1), Client.Keyed.Read { key = 0 })
    in
    (tick_at at, fun () -> ignore (Cluster.submit engine kop))
  in
  let completed = ref 0 in
  let count = function
    | Client.Keyed.Respond { outcome = Ok _; _ } -> incr completed
    | Client.Keyed.Respond { outcome = Error _; _ } | Client.Keyed.Invoke _ -> ()
  in
  Cluster.drive cluster
    (List.map (fun e -> (e, count)) (writer :: Array.to_list reader_engines))
    (List.map fault timed @ List.map op schedule);
  Option.iter
    (fun dst -> Obs.Metrics.merge_into ~dst (Cluster.metrics cluster))
    metrics;
  (* every op has responded: the run is quiescent by construction, and
     operations that exhausted their retries are still open in the
     history — exactly what wait-freedom flags *)
  Fault.Campaign.judge protocol ~quiescent:true ~completed:!completed
    ~total:(List.length schedule) (Cluster.keyed_histories cluster)

let backend ?(opts = default_opts) () =
  {
    Fault.Campaign.backend_name = "live";
    backend_run =
      (fun ?metrics protocol ~cfg ~seed plan ->
        run ?metrics ~opts protocol ~cfg ~seed plan);
  }
