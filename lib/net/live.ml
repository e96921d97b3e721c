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

let protocol_of p = Protocols.of_string (Fault.Campaign.protocol_name p)

(* ----- compiling a plan into live faults --------------------------------- *)

(* What the injector stages before the cluster exists: timed server
   events for the driver thread, and per-object rules whose windows are
   still in virtual ticks (scaled once the run's wall-clock base is
   known; [max_int] = until the run ends). *)
type timed_ev = Tcrash of int | Trecover of int * bool

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

module Live_injector = struct
  type t = {
    mutable timed : (int * timed_ev) list;  (* reversed *)
    mutable vrules : (int * Chaos.rule) list;  (* (object, rule in ticks) *)
  }

  let name = "live"

  let byzantine t ~obj ~kind = t.vrules <- byz_rules ~obj ~from_:0 kind @ t.vrules

  let switch t ~obj ~at ~kind = t.vrules <- byz_rules ~obj ~from_:at kind @ t.vrules

  let crash t ~obj ~at = t.timed <- (at, Tcrash obj) :: t.timed

  let recover t ~obj ~at ~wipe = t.timed <- (at, Trecover (obj, wipe)) :: t.timed

  (* Live links are client<->server only: a block between two clients
     (or two objects) has no wire to act on, mirroring the simulator
     where no such messages flow in these protocols. *)
  let link ~src ~dst ~from_ ~until act =
    match (src, dst) with
    | (Fault.Plan.W | Fault.Plan.R _), Fault.Plan.O i ->
        [ vrule i Chaos.To_server (Some (Fault.Plan.proc_id src)) from_ until act ]
    | Fault.Plan.O i, (Fault.Plan.W | Fault.Plan.R _) ->
        [ vrule i Chaos.To_client (Some (Fault.Plan.proc_id dst)) from_ until act ]
    | _ -> []

  let block t ~src ~dst ~from_ ~until =
    t.vrules <- link ~src ~dst ~from_ ~until Chaos.Drop @ t.vrules

  let isolate t ~obj ~from_ ~until =
    t.vrules <-
      vrule obj Chaos.To_server None from_ until Chaos.Drop
      :: vrule obj Chaos.To_client None from_ until Chaos.Drop
      :: t.vrules

  let duplicate t ~src ~dst ~copies ~from_ ~until =
    t.vrules <- link ~src ~dst ~from_ ~until (Chaos.Duplicate copies) @ t.vrules
end

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
  let ctx = { Live_injector.timed = []; vrules = [] } in
  Fault.Injector.apply (module Live_injector) ctx plan;
  let timed = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev ctx.timed) in
  let vrules = List.rev ctx.Live_injector.vrules in
  let schedule = Fault.Campaign.workload ~seed ~plan in
  let readers = Fault.Campaign.workload_readers in
  let cluster =
    Cluster.start
      ~metrics:(metrics <> None)
      ~opts:opts.client ~transport:opts.transport ~protocol:pack ~cfg ()
  in
  (* One engine per paper process, so each issues its ops at its own
     scheduled ticks and chaos rules aimed at one process match only its
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
  let rec sleep_until target =
    let now = Cluster.now_us cluster in
    if now < target then begin
      Thread.delay (float_of_int (target - now) /. 1e6);
      sleep_until target
    end
  in
  let driver =
    Thread.create
      (fun () ->
        List.iter
          (fun (at, ev) ->
            sleep_until (tick_at at);
            match ev with
            | Tcrash obj -> Cluster.crash cluster obj
            | Trecover (obj, wipe) -> (
                (* a plan may recover an object that is still up *)
                match Cluster.restart ~wipe cluster obj with
                | Ok () | Error (`Still_alive _) -> ()))
          timed)
      ()
  in
  let completed = ref 0 in
  let done_lock = Mutex.create () in
  let run_one engine op =
    if Result.is_ok (Cluster.run engine [| op |]).(0) then begin
      Mutex.lock done_lock;
      incr completed;
      Mutex.unlock done_lock
    end
  in
  let writer_ops =
    List.filter_map
      (function at, Core.Schedule.Write v -> Some (at, v) | _ -> None)
      schedule
  in
  let reader_ops j =
    List.filter_map
      (function
        | at, Core.Schedule.Read { reader } when reader = j -> Some at
        | _ -> None)
      schedule
  in
  let writer_th =
    Thread.create
      (fun () ->
        List.iter
          (fun (at, v) ->
            sleep_until (tick_at at);
            run_one writer (Client.Keyed.Write { key = 0; value = v }))
          writer_ops)
      ()
  in
  let reader_ths =
    List.init readers (fun k ->
        let j = k + 1 in
        Thread.create
          (fun () ->
            List.iter
              (fun at ->
                sleep_until (tick_at at);
                run_one reader_engines.(k) (Client.Keyed.Read { key = 0 }))
              (reader_ops j))
          ())
  in
  Thread.join writer_th;
  List.iter Thread.join reader_ths;
  Thread.join driver;
  (match (metrics, Cluster.metrics cluster) with
  | Some dst, Some src -> Obs.Metrics.merge_into ~dst src
  | _ -> ());
  (* every operation thread has joined: the run is quiescent by
     construction, and operations that exhausted their retries are still
     open in the history — exactly what wait-freedom flags *)
  Fault.Campaign.judge protocol ~quiescent:true ~completed:!completed
    ~total:(List.length schedule) ~spans:(Cluster.spans cluster)
    (Cluster.history cluster)

let backend ?(opts = default_opts) () =
  {
    Fault.Campaign.backend_name = "live";
    backend_run =
      (fun ?metrics protocol ~cfg ~seed plan ->
        run ?metrics ~opts protocol ~cfg ~seed plan);
  }
