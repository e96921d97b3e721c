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

let supported =
  Fault.Campaign.[ Safe; Regular; Regular_opt; Abd ]

let protocol_of = function
  | Fault.Campaign.Safe -> Some Protocols.safe
  | Fault.Campaign.Regular -> Some Protocols.regular
  | Fault.Campaign.Regular_opt -> Some Protocols.regular_opt
  | Fault.Campaign.Abd -> Some Protocols.abd
  | Fault.Campaign.Fast_safe | Fault.Campaign.Naive_fast -> None

(* ----- compiling a plan into live faults --------------------------------- *)

(* What the injector stages before the cluster exists: timed server
   events for the driver thread, and interposer rule windows still in
   virtual ticks (scaled once the run's wall-clock base is known). *)
type timed_ev = Tcrash of int | Trecover of int * bool

type vrule = {
  v_obj : int;  (* 1-based object index *)
  v_dir : Chaos.direction;
  v_sender : string option;
  v_from : int;  (* virtual ticks *)
  v_until : int;  (* virtual ticks; [max_int] = until the run ends *)
  v_act : Chaos.action;
}

let proc_name = function
  | Fault.Plan.W -> "w"
  | Fault.Plan.R j -> "r" ^ string_of_int j
  | Fault.Plan.O i -> "s" ^ string_of_int i

(* The live rendering of the symbolic Byzantine kinds: [Mute] silences
   an object's replies, the lying kinds scramble them past the frame
   header (the peer's total decoder rejects each one — a replica
   speaking garbage), [Flaky] is a silence window.  All count inside
   the paper's [t]/[b] budget exactly as in the simulator. *)
let byz_rules ~obj ~from_ = function
  | Fault.Plan.Mute ->
      [
        {
          v_obj = obj;
          v_dir = Chaos.To_client;
          v_sender = None;
          v_from = from_;
          v_until = max_int;
          v_act = Chaos.Drop;
        };
      ]
  | Fault.Plan.Flaky { down_from; down_until } ->
      [
        {
          v_obj = obj;
          v_dir = Chaos.To_client;
          v_sender = None;
          v_from = max from_ down_from;
          v_until = down_until;
          v_act = Chaos.Drop;
        };
      ]
  | Fault.Plan.Forge | Fault.Plan.Replay | Fault.Plan.Simulate
  | Fault.Plan.Garbage ->
      [
        {
          v_obj = obj;
          v_dir = Chaos.To_client;
          v_sender = None;
          v_from = from_;
          v_until = max_int;
          v_act = Chaos.Corrupt;
        };
      ]

module Live_injector = struct
  type t = {
    mutable timed : (int * timed_ev) list;  (* reversed *)
    mutable vrules : vrule list;
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
        [
          {
            v_obj = i;
            v_dir = Chaos.To_server;
            v_sender = Some (proc_name src);
            v_from = from_;
            v_until = until;
            v_act = act;
          };
        ]
    | Fault.Plan.O i, (Fault.Plan.W | Fault.Plan.R _) ->
        [
          {
            v_obj = i;
            v_dir = Chaos.To_client;
            v_sender = Some (proc_name dst);
            v_from = from_;
            v_until = until;
            v_act = act;
          };
        ]
    | _ -> []

  let block t ~src ~dst ~from_ ~until =
    t.vrules <- link ~src ~dst ~from_ ~until Chaos.Drop @ t.vrules

  let isolate t ~obj ~from_ ~until =
    t.vrules <-
      {
        v_obj = obj;
        v_dir = Chaos.To_server;
        v_sender = None;
        v_from = from_;
        v_until = until;
        v_act = Chaos.Drop;
      }
      :: {
           v_obj = obj;
           v_dir = Chaos.To_client;
           v_sender = None;
           v_from = from_;
           v_until = until;
           v_act = Chaos.Drop;
         }
      :: t.vrules

  let duplicate t ~src ~dst ~copies ~from_ ~until =
    t.vrules <- link ~src ~dst ~from_ ~until (Chaos.Duplicate copies) @ t.vrules
end

(* ----- running one (seed, plan) ------------------------------------------ *)

type outcome = {
  verdict : Fault.Campaign.verdict;
  timeline : (int * string) list;
  history : string Histories.Op.t list;
}

let scale_rule ~base ~tick_us r =
  {
    Chaos.dir = r.v_dir;
    sender = r.v_sender;
    from_us = base + (r.v_from * tick_us);
    until_us =
      (if r.v_until = max_int then max_int else base + (r.v_until * tick_us));
    act = r.v_act;
  }

let rule_info r =
  let act =
    match r.v_act with
    | Chaos.Drop -> "drop"
    | Chaos.Delay d -> Printf.sprintf "delay(%dus)" d
    | Chaos.Duplicate c -> Printf.sprintf "dup(%d)" c
    | Chaos.Corrupt -> "corrupt"
    | Chaos.Reorder -> "reorder"
  in
  let dir =
    match r.v_dir with Chaos.To_server -> "to_server" | Chaos.To_client -> "to_client"
  in
  Printf.sprintf "s%d %s %s%s [%d,%s)" r.v_obj dir act
    (match r.v_sender with None -> "" | Some s -> " sender=" ^ s)
    r.v_from
    (if r.v_until = max_int then "inf" else string_of_int r.v_until)

let run_plan_full ?metrics ?(opts = default_opts) protocol ~cfg ~seed plan =
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
      ~opts:opts.client ~transport:opts.transport ~interpose:true ~protocol:pack ~cfg ()
  in
  (* One engine per paper process, so each issues its ops at its own
     scheduled ticks and chaos rules aimed at one process match only its
     frames. *)
  let writer, reader_engines = Cluster.processes cluster ~readers in
  Fun.protect ~finally:(fun () -> Cluster.stop cluster) @@ fun () ->
  let tl_lock = Mutex.create () in
  let timeline = ref [] in
  let note at msg =
    Mutex.lock tl_lock;
    timeline := (at, msg) :: !timeline;
    Mutex.unlock tl_lock
  in
  (* Virtual tick 0 is anchored a small margin into the future so rule
     installation finishes before any window can open. *)
  let base = Cluster.now_us cluster + 20_000 in
  let tick_at at = base + (at * opts.tick_us) in
  let chaos = Cluster.chaos cluster in
  Array.iteri
    (fun i proxy ->
      let mine = List.filter (fun r -> r.v_obj = i + 1) vrules in
      if mine <> [] then begin
        Chaos.set_rules proxy
          (List.map (scale_rule ~base ~tick_us:opts.tick_us) mine);
        List.iter (fun r -> note (Cluster.now_us cluster) ("rule " ^ rule_info r)) mine
      end)
    chaos;
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
            | Tcrash obj ->
                Cluster.crash cluster obj;
                note (Cluster.now_us cluster) (Printf.sprintf "crash s%d" obj)
            | Trecover (obj, wipe) -> (
                match Cluster.restart ~wipe cluster obj with
                | Ok () ->
                    note (Cluster.now_us cluster)
                      (Printf.sprintf "recover s%d%s" obj
                         (if wipe then " (wiped)" else ""))
                | Error (`Still_alive _) ->
                    note (Cluster.now_us cluster)
                      (Printf.sprintf "recover s%d skipped: still alive" obj)))
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
  let history = Cluster.history cluster in
  (match (metrics, Cluster.metrics cluster) with
  | Some dst, Some src -> Obs.Metrics.merge_into ~dst src
  | _ -> ());
  let equal = String.equal in
  let verdict =
    {
      Fault.Campaign.safety =
        List.length (Histories.Checks.check_safety ~equal history);
      regularity =
        List.length (Histories.Checks.check_regularity ~equal history);
      (* every operation thread has joined: the run is quiescent by
         construction, and operations that exhausted their retries are
         still open in the history — exactly what wait-freedom flags *)
      liveness =
        List.length (Histories.Checks.check_wait_freedom ~quiescent:true history);
      completed = !completed;
      total = List.length schedule;
      quiescent = true;
      spans = Cluster.spans cluster;
    }
  in
  { verdict; timeline = List.rev !timeline; history }

let run_plan ?metrics ?opts protocol ~cfg ~seed plan =
  (run_plan_full ?metrics ?opts protocol ~cfg ~seed plan).verdict

(* ----- live-to-sim witness replay ---------------------------------------- *)

type witness = {
  w_protocol : Fault.Campaign.protocol;
  w_cfg : Quorum.Config.t;
  w_seed : int;
  w_plan : Fault.Plan.t;
  w_live : outcome;
}

let capture ?opts protocol ~cfg ~seed plan =
  {
    w_protocol = protocol;
    w_cfg = cfg;
    w_seed = seed;
    w_plan = plan;
    w_live = run_plan_full ?opts protocol ~cfg ~seed plan;
  }

let replay_sim w =
  Fault.Campaign.run_plan w.w_protocol ~cfg:w.w_cfg ~seed:w.w_seed w.w_plan

let replay_reproduces w =
  Fault.Campaign.verdict_violates w.w_protocol (replay_sim w)

let replay_shrunk ?max_attempts w =
  Fault.Shrink.minimize ?max_attempts
    ~repro:(fun plan ->
      Fault.Campaign.violates w.w_protocol ~cfg:w.w_cfg ~seed:w.w_seed plan)
    w.w_plan

let backend ?(opts = default_opts) () =
  {
    Fault.Campaign.backend_name = "live";
    backend_run =
      (fun ?metrics protocol ~cfg ~seed plan ->
        run_plan ?metrics ~opts protocol ~cfg ~seed plan);
  }
