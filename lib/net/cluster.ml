type client_slot = {
  client : Client.t;
  registry : Obs.Metrics.t option;
  (* a resumed operation responds to the invocation that opened it *)
  mutable open_op : Histories.Recorder.op_handle option;
}

(* A cached engine client: its parked (timed-out) automata must carry
   over between calls, so it is rebuilt only when its parameters change.
   [k_open] holds the history handle of each open op by (key, reader
   id; 0 for the writer): an op that timed out stays open, and the op
   that resumes it responds to the original invocation.  A joined read
   overlaps its lead, so it records under a fresh reader id and is
   tracked by op index (joined ops never park). *)
type keyed_state = {
  k_inflight : int;
  k_readers : int;
  k_coalesce : int;
  k_map : Shard.Map.t;
  k_client : Client.Keyed.t;
  k_registry : Obs.Metrics.t option;
  k_open : (int * int, Histories.Recorder.op_handle) Hashtbl.t;
  k_open_joined : (int, Histories.Recorder.op_handle) Hashtbl.t;
}

type t = {
  cfg : Quorum.Config.t;
  endpoints : Endpoint.t array;  (* what clients dial: proxies if interposed *)
  chaos_ : Chaos.t array;  (* per-object interposers; empty when direct *)
  mutable servers : Server.t array;
  server_registries : Obs.Metrics.t option array;
  writer : client_slot;
  readers : client_slot array;
  single : Shard.Map.t;  (* the single register, key 0 *)
  mutable lanes : keyed_state option;  (* pipelined key-0 reads *)
  mutable keyed : keyed_state option;  (* keyspace runs *)
  (* Base objects keep per-reader round state, so reader ids are never
     reused across client generations: each new client gets a fresh
     range. *)
  mutable next_rid : int;
  (* Recorder reader ids for coalesced reads: the recorder insists each
     concurrently-open read has a distinct reader, and joined reads
     overlap their lead by construction.  Starts far above any real
     reader id so the ranges can never collide. *)
  mutable next_jrid : int;
  copts : Client.opts option;
  protocol : Protocols.t;
  recorder : string Histories.Recorder.t;  (* key 0, every client *)
  key_recorders : (int, string Histories.Recorder.t) Hashtbl.t;  (* key > 0 *)
  rec_mutex : Mutex.t;
  now_us : unit -> int;
  tmpdir : string option;
  with_metrics : bool;
}

let tmp_counter = ref 0

let fresh_tmpdir () =
  let rec go n =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "robustread-net-%d-%d" (Unix.getpid ()) n)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  incr tmp_counter;
  go !tmp_counter

let start ?(metrics = false) ?opts ?(transport = `Unix) ?(domains = 1)
    ?(interpose = false) ~protocol ~cfg ~readers () =
  let s = cfg.Quorum.Config.s in
  let tmpdir, endpoints =
    match transport with
    | `Unix ->
        let dir = fresh_tmpdir () in
        ( Some dir,
          Array.init s (fun i ->
              Endpoint.Unix_sock
                (Filename.concat dir (Printf.sprintf "s%d.sock" (i + 1)))) )
    | `Tcp ->
        ( None,
          Array.init s (fun _ -> Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
        )
  in
  let registry () = if metrics then Some (Obs.Metrics.create ()) else None in
  let server_registries = Array.init s (fun _ -> registry ()) in
  let servers =
    Server.start_group
      ?metrics:
        (if metrics then Some (fun i -> Option.get server_registries.(i))
         else None)
      ~domains ~protocol ~cfg endpoints
  in
  (* Ephemeral TCP ports are only known after bind. *)
  let server_endpoints = Array.map Server.endpoint servers in
  (* Monotonic: histories, spans and chaos windows compare these stamps,
     which a wall-clock step must not reorder. *)
  let t0 = Monotonic_clock.now () in
  let now_us () = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) / 1000 in
  (* With interposition, every client dials a per-object chaos proxy
     relaying to the real server; the server endpoint stays stable
     across crash/restart, so a proxy never needs re-targeting. *)
  let chaos_ =
    if not interpose then [||]
    else
      Array.init s (fun i ->
          let listen =
            match (transport, tmpdir) with
            | `Unix, Some dir ->
                Endpoint.Unix_sock
                  (Filename.concat dir (Printf.sprintf "c%d.sock" (i + 1)))
            | _ -> Endpoint.Tcp { host = "127.0.0.1"; port = 0 }
          in
          Chaos.start ~now_us ~listen ~target:server_endpoints.(i) ())
  in
  let endpoints =
    if interpose then Array.map Chaos.endpoint chaos_ else server_endpoints
  in
  let slot role =
    let registry = registry () in
    {
      client =
        Client.connect ?metrics:registry ?opts ~now_us ~protocol ~cfg ~role
          endpoints;
      registry;
      open_op = None;
    }
  in
  {
    cfg;
    endpoints;
    chaos_;
    servers;
    server_registries;
    writer = slot `Writer;
    readers = Array.init readers (fun j -> slot (`Reader (j + 1)));
    single = Shard.Map.single cfg;
    lanes = None;
    keyed = None;
    next_rid = readers + 1;
    next_jrid = 1_000_000;
    copts = opts;
    protocol;
    recorder = Histories.Recorder.create ();
    key_recorders = Hashtbl.create 64;
    rec_mutex = Mutex.create ();
    now_us;
    tmpdir;
    with_metrics = metrics;
  }

let locked t f =
  Mutex.lock t.rec_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rec_mutex) f

(* Record the invocation unless the slot still has an op in flight (the
   client resumes it; the original invocation stays the right event). *)
let invoke t slot mk =
  locked t (fun () ->
      match slot.open_op with
      | Some h -> h
      | None ->
          let h = mk ~time:(t.now_us ()) in
          slot.open_op <- Some h;
          h)

let respond t slot h finish =
  locked t (fun () ->
      slot.open_op <- None;
      finish h ~time:(t.now_us ()))

let write t v =
  let slot = t.writer in
  let h =
    invoke t slot (fun ~time ->
        Histories.Recorder.invoke_write t.recorder ~time
          (Core.Value.to_string v))
  in
  match Client.write slot.client v with
  | Ok _ as ok ->
      respond t slot h (fun h ~time ->
          Histories.Recorder.respond_write t.recorder h ~time);
      ok
  | Error _ as e -> e

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  let slot = t.readers.(reader - 1) in
  let h =
    invoke t slot (fun ~time ->
        Histories.Recorder.invoke_read t.recorder ~time ~reader)
  in
  match Client.read slot.client with
  | Ok o as ok ->
      let result =
        match o.Client.value with
        | Some Core.Value.Bottom | None -> Histories.Op.Bottom
        | Some (Core.Value.V s) -> Histories.Op.Value s
      in
      respond t slot h (fun h ~time ->
          Histories.Recorder.respond_read t.recorder h ~time result);
      ok
  | Error _ as e -> e

let result_of (o : Client.outcome) =
  match o.value with
  | Some Core.Value.Bottom | None -> Histories.Op.Bottom
  | Some (Core.Value.V s) -> Histories.Op.Value s

(* The cached client for [prev]'s role, rebuilt with fresh reader ids
   when a parameter changed. *)
let keyed_client t prev ~map ~inflight ~readers ~coalesce =
  match prev with
  | Some k
    when k.k_inflight = inflight && k.k_readers = readers
         && k.k_coalesce = coalesce && k.k_map == map ->
      k
  | _ ->
      Option.iter (fun k -> Client.Keyed.close k.k_client) prev;
      let registry =
        if t.with_metrics then Some (Obs.Metrics.create ()) else None
      in
      let reader = t.next_rid in
      t.next_rid <- t.next_rid + readers;
      {
        k_inflight = inflight;
        k_readers = readers;
        k_coalesce = coalesce;
        k_map = map;
        k_client =
          Client.Keyed.connect ?metrics:registry ?opts:t.copts ~now_us:t.now_us
            ~max_inflight:inflight ~reader ~readers ~coalesce
            ~protocol:t.protocol ~map t.endpoints;
        k_registry = registry;
        k_open = Hashtbl.create 64;
        k_open_joined = Hashtbl.create 64;
      }

(* Key 0 records into the main history, where the single-register
   clients' ops go too, so a run mixing them is checked as one
   register; every other key sampled by [sample] gets a history of its
   own. *)
let record t k ~sample ops ev =
  let recorder_for key =
    if key = 0 then t.recorder
    else
      match Hashtbl.find_opt t.key_recorders key with
      | Some r -> r
      | None ->
          let r = Histories.Recorder.create () in
          Hashtbl.replace t.key_recorders key r;
          r
  in
  match ev with
  | Client.Keyed.Invoke { key; _ } | Client.Keyed.Respond { key; _ }
    when key <> 0 && not (sample key) ->
      ()
  | Client.Keyed.Invoke { op; key; joined = true; at_us; _ } ->
      let jrid = t.next_jrid in
      t.next_jrid <- t.next_jrid + 1;
      Hashtbl.replace k.k_open_joined op
        (Histories.Recorder.invoke_read (recorder_for key) ~time:at_us
           ~reader:jrid)
  | Client.Keyed.Respond { op; key; joined = true; at_us; outcome; _ } -> (
      match Hashtbl.find_opt k.k_open_joined op with
      | None -> ()
      | Some h -> (
          Hashtbl.remove k.k_open_joined op;
          match outcome with
          | Error _ -> () (* never resumed: the op stays open *)
          | Ok o ->
              Histories.Recorder.respond_read (recorder_for key) h ~time:at_us
                (result_of o)))
  | Client.Keyed.Invoke { op; key; write; reader; at_us; _ } ->
      if not (Hashtbl.mem k.k_open (key, reader)) then
        let r = recorder_for key in
        Hashtbl.replace k.k_open (key, reader)
          (match ops.(op) with
          | Client.Keyed.Write { value; _ } when write ->
              Histories.Recorder.invoke_write r ~time:at_us
                (Core.Value.to_string value)
          | Client.Keyed.Write _ | Client.Keyed.Read _ ->
              Histories.Recorder.invoke_read r ~time:at_us ~reader)
  | Client.Keyed.Respond { key; write; reader; at_us; outcome; _ } -> (
      match (outcome, Hashtbl.find_opt k.k_open (key, reader)) with
      | Error _, _ | _, None -> () (* open until a later op resumes it *)
      | Ok o, Some h ->
          Hashtbl.remove k.k_open (key, reader);
          let r = recorder_for key in
          if write then Histories.Recorder.respond_write r h ~time:at_us
          else Histories.Recorder.respond_read r h ~time:at_us (result_of o))

(* Events fire on the pump's hot path, once per op start and finish:
   take the mutex directly instead of allocating a [locked] thunk per
   event.  Recorder calls raise only on misuse bugs; the handler
   re-raises with the mutex released so the failure stays loud. *)
let run_recorded ?(sample = fun _ -> true) ?(hook = ignore) t k ops =
  let on_event ev =
    Mutex.lock t.rec_mutex;
    (try record t k ~sample ops ev
     with e ->
       Mutex.unlock t.rec_mutex;
       raise e);
    Mutex.unlock t.rec_mutex;
    hook ev
  in
  Client.Keyed.run_ops ~on_event k.k_client ops

let read_pipelined ?(coalesce = 1) t ~inflight ~ops =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.read_pipelined: inflight %d" inflight);
  let k =
    keyed_client t t.lanes ~map:t.single ~inflight ~readers:inflight ~coalesce
  in
  t.lanes <- Some k;
  run_recorded t k (Array.make ops (Client.Keyed.Read { key = 0 }))

let run_keyed ?(inflight = 16) ?(coalesce = 1) ?sample ?on_event t ~map ops =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.run_keyed: inflight %d" inflight);
  if Shard.Map.fleet map <> Array.length t.endpoints then
    invalid_arg
      (Printf.sprintf "Cluster.run_keyed: map fleet %d, cluster has %d"
         (Shard.Map.fleet map) (Array.length t.endpoints));
  let k = keyed_client t t.keyed ~map ~inflight ~readers:1 ~coalesce in
  t.keyed <- Some k;
  run_recorded ?sample ?hook:on_event t k ops

let history t = locked t (fun () -> Histories.Recorder.ops t.recorder)

let keyed_histories t =
  let main = history t in
  let rest =
    locked t (fun () ->
        Hashtbl.fold
          (fun key r acc -> (key, Histories.Recorder.ops r) :: acc)
          t.key_recorders [])
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  if main = [] then rest else (0, main) :: rest

let keys_touched t =
  match t.keyed with None -> 0 | Some k -> Client.Keyed.keys_touched k.k_client

let check_index t i =
  if i < 1 || i > Array.length t.servers then
    invalid_arg (Printf.sprintf "Cluster: object %d" i)

let crash t i =
  check_index t i;
  Server.crash t.servers.(i - 1)

(* A restart that races a still-running server is a campaign finding,
   not a programming error: surface it structurally so a fault driver
   can skip or retry instead of unwinding mid-sweep. *)
let restart ?wipe t i =
  check_index t i;
  if Server.is_alive t.servers.(i - 1) then Error (`Still_alive i)
  else begin
    t.servers.(i - 1) <- Server.restart ?wipe t.servers.(i - 1);
    Ok ()
  end

let restart_exn ?wipe t i =
  match restart ?wipe t i with
  | Ok () -> ()
  | Error (`Still_alive i) ->
      invalid_arg (Printf.sprintf "Cluster.restart: server %d still alive" i)

let partition_violations t =
  (* Group-wide counter: every handle reports the same one. *)
  Array.fold_left
    (fun acc s -> max acc (Server.partition_violations s))
    0 t.servers

let chaos t = t.chaos_

let now_us t = t.now_us ()

let alive t =
  Array.to_list t.servers
  |> List.filter_map (fun s ->
         if Server.alive s then Some (Server.index s) else None)

let endpoints t = t.endpoints

let cfg t = t.cfg

let spans t =
  Client.spans t.writer.client
  @ List.concat_map
      (fun r -> Client.spans r.client)
      (Array.to_list t.readers)
  @ List.concat_map
      (fun k -> Client.Keyed.spans k.k_client)
      (Option.to_list t.lanes @ Option.to_list t.keyed)

let metrics t =
  if not t.with_metrics then None
  else begin
    let dst = Obs.Metrics.create () in
    Array.iter
      (Option.iter (fun src -> Obs.Metrics.merge_into ~dst src))
      t.server_registries;
    Option.iter (fun src -> Obs.Metrics.merge_into ~dst src) t.writer.registry;
    Array.iter
      (fun r -> Option.iter (fun src -> Obs.Metrics.merge_into ~dst src) r.registry)
      t.readers;
    List.iter
      (fun k ->
        Option.iter (fun src -> Obs.Metrics.merge_into ~dst src) k.k_registry)
      (Option.to_list t.lanes @ Option.to_list t.keyed);
    Some dst
  end

let stop t =
  Client.close t.writer.client;
  Array.iter (fun r -> Client.close r.client) t.readers;
  List.iter
    (fun k -> Client.Keyed.close k.k_client)
    (Option.to_list t.lanes @ Option.to_list t.keyed);
  t.lanes <- None;
  t.keyed <- None;
  Array.iter Chaos.stop t.chaos_;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  match t.tmpdir with
  | None -> ()
  | Some dir -> ( try Unix.rmdir dir with Unix.Unix_error _ -> ())
