type 'msg envelope = {
  src : Proc_id.t;
  dst : Proc_id.t;
  sent_at : int;
  msg : 'msg;
}

module Event = struct
  type t = { at : int; seq : int; run : unit -> unit }

  let compare a b =
    match Int.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c
end

module Queue = Heap.Make (Event)

module Link = struct
  type t = Proc_id.t * Proc_id.t

  let compare (a1, a2) (b1, b2) =
    match Proc_id.compare a1 b1 with 0 -> Proc_id.compare a2 b2 | c -> c
end

module Link_map = Map.Make (Link)
module Link_set = Set.Make (Link)

(* Dense per-process tables.  Proc ids are contiguous small integers
   within each rank (Writer; Reader 1..r; Obj 1..s), so a handler or
   crash lookup is two bounds checks and an array read instead of a
   balanced-tree descent — this sits on the per-message hot path. *)
module Ptab = struct
  type 'a t = {
    mutable writer : 'a option;
    mutable readers : 'a option array;
    mutable objs : 'a option array;
  }

  let create () = { writer = None; readers = [||]; objs = [||] }

  let grown arr i =
    let n = Array.length arr in
    if i < n then arr
    else begin
      let a = Array.make (max (i + 1) (max 4 (2 * n))) None in
      Array.blit arr 0 a 0 n;
      a
    end

  let set t id v =
    match (id : Proc_id.t) with
    | Proc_id.Writer -> t.writer <- v
    | Proc_id.Reader j ->
        if j < 0 then invalid_arg "Engine: negative reader index";
        t.readers <- grown t.readers j;
        t.readers.(j) <- v
    | Proc_id.Obj i ->
        if i < 0 then invalid_arg "Engine: negative object index";
        t.objs <- grown t.objs i;
        t.objs.(i) <- v

  let get t id =
    match (id : Proc_id.t) with
    | Proc_id.Writer -> t.writer
    | Proc_id.Reader j ->
        if j >= 0 && j < Array.length t.readers then
          Array.unsafe_get t.readers j
        else None
    | Proc_id.Obj i ->
        if i >= 0 && i < Array.length t.objs then Array.unsafe_get t.objs i
        else None

  (* Registered ids in descending {!Proc_id.compare} order (Obj s..1,
     Reader r..1, Writer) — the same sequence the previous
     [Proc_id.Map.fold]-with-cons enumeration produced.  Callers rely on
     this order when releasing buffered links (it fixes the rng-draw
     order of the redelivery delays). *)
  let ids_desc t =
    let acc = ref [] in
    (match t.writer with
    | Some _ -> acc := Proc_id.Writer :: !acc
    | None -> ());
    for j = 0 to Array.length t.readers - 1 do
      match t.readers.(j) with
      | Some _ -> acc := Proc_id.Reader j :: !acc
      | None -> ()
    done;
    for i = 0 to Array.length t.objs - 1 do
      match t.objs.(i) with
      | Some _ -> acc := Proc_id.Obj i :: !acc
      | None -> ()
    done;
    !acc
end

(* Message accounting through {!Obs.Metrics} handles made at create;
   each registers on first use, so a run that never drops (or never even
   steps) exports exactly the counters it touched. *)
type 'msg meters = {
  sent : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  dropped : Obs.Metrics.counter;
  events : Obs.Metrics.counter;
  depth : Obs.Metrics.histogram;
  wallclock : Obs.Metrics.histogram;
  wire : 'msg Obs.Metrics.wire;
      (* per class ("wire.read.r1.req.sent", ...) only when the scenario
         supplied a classifier *)
}

type 'msg t = {
  mutable queue : Queue.t;
  mutable queue_size : int;  (* cached so depth metering is O(1) *)
  mutable now : int;
  mutable seq : int;
  handlers : ('msg envelope -> unit) Ptab.t;
  crashed : bool Ptab.t;
  mutable endpoints : Proc_id.t list option;
      (* cached [Ptab.ids_desc handlers]; invalidated on [register] *)
  mutable blocked : Link_set.t;
  mutable buffered : 'msg envelope list Link_map.t;  (* newest first *)
  mutable duplicating : int Link_map.t;  (* extra copies per send *)
  mutable faults_active : bool;
      (* [blocked] or [duplicating] non-empty; when false, [send] skips
         both per-message link lookups entirely *)
  mutable delivered : int;
  mutable dropped : int;
  rng : Prng.t;
  delay : Delay.t;
  trace : Trace.t option;
  msg_info : 'msg -> string;
  meters : 'msg meters;
  clock : (unit -> float) option;
}

let create ?trace ?(msg_info = fun _ -> "msg") ?metrics ?classify ?clock ~seed
    ~delay () =
  let reg = Option.value metrics ~default:Obs.Metrics.off in
  let c name = Obs.Metrics.counter reg name in
  let meters =
    {
      sent = c "engine.sent";
      delivered = c "engine.delivered";
      dropped = c "engine.dropped";
      events = c "engine.events";
      depth =
        Obs.Metrics.histogram reg "engine.queue_depth"
          ~bounds:Obs.Metrics.depth_bounds;
      wallclock =
        Obs.Metrics.histogram reg "engine.event_wallclock_us"
          ~bounds:Obs.Metrics.wallclock_bounds;
      wire =
        (match classify with
        | Some f -> Obs.Metrics.wire reg f
        | None -> Obs.Metrics.wire Obs.Metrics.off (fun _ -> Obs.Wire.other));
    }
  in
  {
    queue = Queue.empty;
    queue_size = 0;
    now = 0;
    seq = 0;
    handlers = Ptab.create ();
    crashed = Ptab.create ();
    endpoints = None;
    blocked = Link_set.empty;
    buffered = Link_map.empty;
    duplicating = Link_map.empty;
    faults_active = false;
    delivered = 0;
    dropped = 0;
    rng = Prng.create ~seed;
    delay;
    trace;
    msg_info;
    meters;
    clock;
  }

let meter_msg t (stage : Obs.Wire.stage) msg =
  let ms = t.meters in
  Obs.Metrics.counter_incr
    (match stage with
    | Sent -> ms.sent
    | Delivered -> ms.delivered
    | Dropped -> ms.dropped);
  Obs.Metrics.wire_incr ms.wire stage msg

let rng t = t.rng

let now t = t.now

let tracing t f = match t.trace with None -> () | Some tr -> Trace.record tr (f ())

let register t id handler =
  Ptab.set t.handlers id (Some handler);
  t.endpoints <- None

let is_crashed t id = Ptab.get t.crashed id = Some true

let enqueue t ~at run =
  if at < t.now then invalid_arg "Engine: scheduling in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  t.queue <- Queue.insert t.queue { Event.at; seq; run };
  t.queue_size <- t.queue_size + 1

let deliver t env =
  if is_crashed t env.dst then begin
    t.dropped <- t.dropped + 1;
    meter_msg t Obs.Wire.Dropped env.msg;
    tracing t (fun () ->
        Trace.Drop
          {
            time = t.now;
            src = env.src;
            dst = env.dst;
            info = t.msg_info env.msg;
            reason = "destination crashed";
          })
  end
  else
    match Ptab.get t.handlers env.dst with
    | None ->
        t.dropped <- t.dropped + 1;
        meter_msg t Obs.Wire.Dropped env.msg;
        tracing t (fun () ->
            Trace.Drop
              {
                time = t.now;
                src = env.src;
                dst = env.dst;
                info = t.msg_info env.msg;
                reason = "no handler";
              })
    | Some handler ->
        t.delivered <- t.delivered + 1;
        meter_msg t Obs.Wire.Delivered env.msg;
        tracing t (fun () ->
            Trace.Deliver
              {
                time = t.now;
                src = env.src;
                dst = env.dst;
                info = t.msg_info env.msg;
              });
        handler env

let schedule_delivery t env =
  let d =
    Delay.sample t.delay ~rng:t.rng ~src:env.src ~dst:env.dst ~now:t.now
  in
  enqueue t ~at:(t.now + d) (fun () -> deliver t env)

let send t ~src ~dst msg =
  (* A crashed process takes no further steps, hence sends nothing. *)
  if is_crashed t src then ()
  else begin
    meter_msg t Obs.Wire.Sent msg;
    tracing t (fun () ->
        Trace.Send { time = t.now; src; dst; info = t.msg_info msg });
    if not t.faults_active then
      (* fast path: no link blocked or duplicating anywhere, so skip the
         per-message [Link_map]/[Link_set] lookups *)
      schedule_delivery t { src; dst; sent_at = t.now; msg }
    else begin
      let copies =
        1 + Option.value (Link_map.find_opt (src, dst) t.duplicating) ~default:0
      in
      for _ = 1 to copies do
        let env = { src; dst; sent_at = t.now; msg } in
        if Link_set.mem (src, dst) t.blocked then
          t.buffered <-
            Link_map.update (src, dst)
              (fun prev -> Some (env :: Option.value prev ~default:[]))
              t.buffered
        else schedule_delivery t env
      done
    end
  end

let at t ~time action = enqueue t ~at:time action

let after t ~delay action = enqueue t ~at:(t.now + delay) action

let crash t id =
  if not (is_crashed t id) then begin
    Ptab.set t.crashed id (Some true);
    tracing t (fun () -> Trace.Crash { time = t.now; proc = id });
    (* Envelopes already buffered on blocked links towards the crashed
       process can never be delivered: account for them now rather than
       releasing them into the drop path at unblock time (which would
       date the drops wrong and skew [dropped_count]). *)
    if not (Link_map.is_empty t.buffered) then
      t.buffered <-
        Link_map.filter_map
          (fun (_, dst) envs ->
            if Proc_id.equal dst id then begin
              List.iter
                (fun env ->
                  t.dropped <- t.dropped + 1;
                  tracing t (fun () ->
                      Trace.Drop
                        {
                          time = t.now;
                          src = env.src;
                          dst = env.dst;
                          info = t.msg_info env.msg;
                          reason = "destination crashed";
                        }))
                (List.rev envs);
              None
            end
            else Some envs)
          t.buffered
  end

let recover t id =
  if is_crashed t id then begin
    Ptab.set t.crashed id (Some false);
    tracing t (fun () -> Trace.Recover { time = t.now; proc = id })
  end

let refresh_faults_active t =
  t.faults_active <-
    (not (Link_set.is_empty t.blocked))
    || not (Link_map.is_empty t.duplicating)

let block_link t ~src ~dst =
  t.blocked <- Link_set.add (src, dst) t.blocked;
  t.faults_active <- true

let set_duplication t ~src ~dst ~copies =
  if copies < 0 then invalid_arg "Engine.set_duplication: negative copies";
  t.duplicating <-
    (if copies = 0 then Link_map.remove (src, dst) t.duplicating
     else Link_map.add (src, dst) copies t.duplicating);
  refresh_faults_active t

let clear_duplication t ~src ~dst =
  t.duplicating <- Link_map.remove (src, dst) t.duplicating;
  refresh_faults_active t

let unblock_link t ~src ~dst =
  t.blocked <- Link_set.remove (src, dst) t.blocked;
  (match Link_map.find_opt (src, dst) t.buffered with
  | None -> ()
  | Some envs ->
      t.buffered <- Link_map.remove (src, dst) t.buffered;
      List.iter (schedule_delivery t) (List.rev envs));
  refresh_faults_active t

(* The registered endpoint list is derived once and cached (register
   invalidates); block/unblock of a whole process used to rebuild it —
   plus a per-endpoint intermediate list — on every call. *)
let endpoints t =
  match t.endpoints with
  | Some ps -> ps
  | None ->
      let ps = Ptab.ids_desc t.handlers in
      t.endpoints <- Some ps;
      ps

let block_process t id =
  List.iter
    (fun p ->
      block_link t ~src:id ~dst:p;
      block_link t ~src:p ~dst:id)
    (endpoints t)

let unblock_process t id =
  List.iter
    (fun p ->
      unblock_link t ~src:id ~dst:p;
      unblock_link t ~src:p ~dst:id)
    (endpoints t)

let step t =
  match Queue.pop t.queue with
  | None -> false
  | Some (ev, rest) ->
      Obs.Metrics.counter_incr t.meters.events;
      (* the cached size still includes the event being popped, matching
         the pre-cache [Queue.size] observation point *)
      Obs.Metrics.histogram_observe_int t.meters.depth t.queue_size;
      t.queue <- rest;
      t.queue_size <- t.queue_size - 1;
      t.now <- ev.Event.at;
      (* Host wall-clock per simulated event, only when the caller opted
         in with a clock — the default stays free of ambient state so
         runs (and their exports) are bit-deterministic. *)
      (match t.clock with
      | Some clock ->
          let t0 = clock () in
          ev.Event.run ();
          Obs.Metrics.histogram_observe t.meters.wallclock
            ((clock () -. t0) *. 1e6)
      | None -> ev.Event.run ());
      true

let run ?until ?max_events t =
  let budget = Option.value max_events ~default:max_int in
  let horizon = Option.value until ~default:max_int in
  let rec loop n =
    if n >= budget then n
    else
      match Queue.min t.queue with
      | None -> n
      | Some ev when ev.Event.at > horizon -> n
      | Some _ ->
          ignore (step t);
          loop (n + 1)
  in
  loop 0

let pending_events t = t.queue_size

let delivered_count t = t.delivered

let dropped_count t = t.dropped
