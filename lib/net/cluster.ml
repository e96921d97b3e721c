type client_slot = {
  client : Client.t;
  registry : Obs.Metrics.t option;
  (* a resumed operation responds to the invocation that opened it *)
  mutable open_op : Histories.Recorder.op_handle option;
}

(* The pipelined read runtime is created on first use and cached: its
   reader slots carry parked (timed-out) operations across calls, so
   rebuilding it per call would leak half-finished automata. *)
type mux_state = {
  m_inflight : int;
  m_first : int;  (* first reader id of this mux's slots *)
  m_coalesce : int;
  m_mux : Client.Mux.t;
  m_registry : Obs.Metrics.t option;
  m_open : Histories.Recorder.op_handle option array;  (* per reader slot *)
  (* Coalesced reads are extra concurrent ops on the same slot, so they
     cannot share the slot's open-op cell (nor its recorder reader id):
     they are tracked per op index with fresh ids from [next_jrid]. *)
  m_open_joined : (int, Histories.Recorder.op_handle) Hashtbl.t;
}

(* The keyed keyspace runtime, cached for the same reason as the mux:
   parked per-key automata must survive across calls.  Histories are
   per key (each key is its own register) and recorded only for keys
   the caller samples. *)
type keyed_state = {
  k_inflight : int;
  k_map : Shard.Map.t;
  k_coalesce : int;
  k_client : Client.Keyed.t;
  k_registry : Obs.Metrics.t option;
  k_recorders : (int, string Histories.Recorder.t) Hashtbl.t;
  k_open : (int * bool, Histories.Recorder.op_handle) Hashtbl.t;
  (* Coalesced reads overlap the lead on the same (key, role), so they
     get their own handles, keyed by op index, under fresh reader ids. *)
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
  mutable mux : mux_state option;
  mutable keyed : keyed_state option;
  (* Base objects keep per-reader round state, so reader ids are never
     reused across mux generations: each new mux gets a fresh range. *)
  mutable next_rid : int;
  (* Recorder reader ids for coalesced reads: the recorder insists each
     concurrently-open read has a distinct reader, and joined reads
     overlap their lead by construction.  Starts far above any real
     reader id so the ranges can never collide. *)
  mutable next_jrid : int;
  copts : Client.opts option;
  protocol : Protocols.t;
  recorder : string Histories.Recorder.t;
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

let start ?(metrics = false) ?opts ?(transport = `Unix) ?(loop = `Threads)
    ?(domains = 1) ?(interpose = false) ~protocol ~cfg ~readers () =
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
    match loop with
    | `Threads ->
        Array.init s (fun i ->
            Server.start
              ?metrics:server_registries.(i)
              ~protocol ~cfg ~index:(i + 1) endpoints.(i))
    | `Poll ->
        (* All S objects sharded across [domains] event-loop domains
           (one domain when unspecified). *)
        Server.start_group
          ?metrics:
            (if metrics then
               Some (fun i -> Option.get server_registries.(i))
             else None)
          ~domains ~protocol ~cfg endpoints
  in
  (* Ephemeral TCP ports are only known after bind. *)
  let server_endpoints = Array.map Server.endpoint servers in
  let t0 = Unix.gettimeofday () in
  let now_us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
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
    mux = None;
    keyed = None;
    next_rid = readers + 1;
    next_jrid = 1_000_000;
    copts = opts;
    protocol;
    recorder = Histories.Recorder.create ();
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

let mux_for t ~inflight ~coalesce =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.read_pipelined: inflight %d" inflight);
  match t.mux with
  | Some m when m.m_inflight = inflight && m.m_coalesce = coalesce -> m
  | existing ->
      (match existing with
      | Some m -> Client.Mux.close m.m_mux
      | None -> ());
      let registry =
        if t.with_metrics then Some (Obs.Metrics.create ()) else None
      in
      let first = t.next_rid in
      t.next_rid <- t.next_rid + inflight;
      let m =
        {
          m_inflight = inflight;
          m_first = first;
          m_coalesce = coalesce;
          m_mux =
            Client.Mux.connect ?metrics:registry ?opts:t.copts
              ~now_us:t.now_us ~max_inflight:inflight ~first_reader:first
              ~coalesce ~protocol:t.protocol ~cfg:t.cfg ~readers:inflight
              t.endpoints;
          m_registry = registry;
          m_open = Array.make inflight None;
          m_open_joined = Hashtbl.create 64;
        }
      in
      t.mux <- Some m;
      m

let read_pipelined ?(coalesce = 1) t ~inflight ~ops =
  let m = mux_for t ~inflight ~coalesce in
  (* Events fire on the pump's hot path, once per op start and finish:
     take the mutex directly instead of allocating a [locked] thunk per
     event.  Recorder calls raise only on misuse bugs; the handler
     below re-raises with the mutex released so the failure stays
     loud. *)
  let record ev =
    match ev with
    | Client.Mux.Invoke { op; joined = true; at_us; _ } ->
        (* A coalesced read overlaps its lead, so it needs a recorder
           reader id of its own (the recorder allows one open op per
           reader).  Joined ops never park/resume: keyed by op index. *)
        let jrid = t.next_jrid in
        t.next_jrid <- t.next_jrid + 1;
        Hashtbl.replace m.m_open_joined op
          (Histories.Recorder.invoke_read t.recorder ~time:at_us ~reader:jrid)
    | Client.Mux.Respond { op; joined = true; at_us; outcome; _ } -> (
        match Hashtbl.find_opt m.m_open_joined op with
        | None -> ()
        | Some h -> (
            Hashtbl.remove m.m_open_joined op;
            match outcome with
            | Error _ -> ()  (* never resumed: the op stays open *)
            | Ok o ->
                let result =
                  match o.Client.value with
                  | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                  | Some (Core.Value.V s) -> Histories.Op.Value s
                in
                Histories.Recorder.respond_read t.recorder h ~time:at_us result))
    | Client.Mux.Invoke { reader; at_us; _ } -> (
        match m.m_open.(reader - m.m_first) with
        | Some _ -> ()  (* resuming a parked op: invocation stands *)
        | None ->
            m.m_open.(reader - m.m_first) <-
              Some
                (Histories.Recorder.invoke_read t.recorder ~time:at_us ~reader))
    | Client.Mux.Respond { reader; at_us; outcome; _ } -> (
        match outcome with
        | Error _ -> ()  (* op stays open; a later read resumes it *)
        | Ok o -> (
            match m.m_open.(reader - m.m_first) with
            | None -> ()
            | Some h ->
                m.m_open.(reader - m.m_first) <- None;
                let result =
                  match o.Client.value with
                  | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                  | Some (Core.Value.V s) -> Histories.Op.Value s
                in
                Histories.Recorder.respond_read t.recorder h ~time:at_us result))
  in
  let on_event ev =
    Mutex.lock t.rec_mutex;
    (try record ev
     with e ->
       Mutex.unlock t.rec_mutex;
       raise e);
    Mutex.unlock t.rec_mutex
  in
  Client.Mux.run_reads ~on_event m.m_mux ops

let keyed_for t ~map ~inflight ~coalesce =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.run_keyed: inflight %d" inflight);
  match t.keyed with
  | Some k
    when k.k_inflight = inflight && k.k_map == map && k.k_coalesce = coalesce
    ->
      k
  | existing ->
      (match existing with
      | Some k -> Client.Keyed.close k.k_client
      | None -> ());
      if Shard.Map.fleet map <> Array.length t.endpoints then
        invalid_arg
          (Printf.sprintf "Cluster.run_keyed: map fleet %d, cluster has %d"
             (Shard.Map.fleet map) (Array.length t.endpoints));
      let registry =
        if t.with_metrics then Some (Obs.Metrics.create ()) else None
      in
      (* Fresh reader id: key 0 is also served to the plain clients
         (untagged frames), so the keyed reader must not collide with a
         serial reader's per-reader round state on key 0's objects. *)
      let rid = t.next_rid in
      t.next_rid <- t.next_rid + 1;
      let k =
        {
          k_inflight = inflight;
          k_map = map;
          k_coalesce = coalesce;
          k_client =
            Client.Keyed.connect ?metrics:registry ?opts:t.copts
              ~now_us:t.now_us ~max_inflight:inflight ~reader:rid ~coalesce
              ~protocol:t.protocol ~map t.endpoints;
          k_registry = registry;
          k_recorders = Hashtbl.create 64;
          k_open = Hashtbl.create 64;
          k_open_joined = Hashtbl.create 64;
        }
      in
      t.keyed <- Some k;
      k

let run_keyed ?(inflight = 16) ?(coalesce = 1) ?(sample = fun _ -> true)
    ?on_event:(hook = ignore) t ~map ops =
  let k = keyed_for t ~map ~inflight ~coalesce in
  let recorder_for key =
    match Hashtbl.find_opt k.k_recorders key with
    | Some r -> r
    | None ->
        let r = Histories.Recorder.create () in
        Hashtbl.replace k.k_recorders key r;
        r
  in
  let record ev =
    match ev with
    | Client.Keyed.Invoke { op; key; joined = true; at_us; _ } ->
        if sample key then begin
          (* A coalesced read overlaps its lead on the same key, so it
             records under a fresh reader id (the recorder allows one
             open op per reader).  Joined ops never park/resume: keyed
             by op index. *)
          let jrid = t.next_jrid in
          t.next_jrid <- t.next_jrid + 1;
          let r = recorder_for key in
          Hashtbl.replace k.k_open_joined op
            (Histories.Recorder.invoke_read r ~time:at_us ~reader:jrid)
        end
    | Client.Keyed.Respond { op; key; joined = true; at_us; outcome; _ } ->
        if sample key then begin
          match Hashtbl.find_opt k.k_open_joined op with
          | None -> ()
          | Some h -> (
              Hashtbl.remove k.k_open_joined op;
              match outcome with
              | Error _ -> ()  (* never resumed: the op stays open *)
              | Ok o ->
                  let r = recorder_for key in
                  let result =
                    match o.Client.value with
                    | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                    | Some (Core.Value.V s) -> Histories.Op.Value s
                  in
                  Histories.Recorder.respond_read r h ~time:at_us result)
        end
    | Client.Keyed.Invoke { op; key; write; at_us; _ } ->
        if sample key then begin
          match Hashtbl.find_opt k.k_open (key, write) with
          | Some _ -> ()  (* resuming a parked op: invocation stands *)
          | None ->
              let r = recorder_for key in
              let h =
                if write then
                  let v =
                    match ops.(op) with
                    | Client.Keyed.Write { value; _ } ->
                        Core.Value.to_string value
                    | Client.Keyed.Read _ -> assert false
                  in
                  Histories.Recorder.invoke_write r ~time:at_us v
                else Histories.Recorder.invoke_read r ~time:at_us ~reader:1
              in
              Hashtbl.replace k.k_open (key, write) h
        end
    | Client.Keyed.Respond { key; write; at_us; outcome; _ } ->
        if sample key then begin
          match outcome with
          | Error _ -> ()  (* op stays open; a later op resumes it *)
          | Ok o -> (
              match Hashtbl.find_opt k.k_open (key, write) with
              | None -> ()
              | Some h ->
                  Hashtbl.remove k.k_open (key, write);
                  let r = recorder_for key in
                  if write then Histories.Recorder.respond_write r h ~time:at_us
                  else
                    let result =
                      match o.Client.value with
                      | Some Core.Value.Bottom | None -> Histories.Op.Bottom
                      | Some (Core.Value.V s) -> Histories.Op.Value s
                    in
                    Histories.Recorder.respond_read r h ~time:at_us result)
        end
  in
  let on_event ev =
    Mutex.lock t.rec_mutex;
    (try record ev
     with e ->
       Mutex.unlock t.rec_mutex;
       raise e);
    Mutex.unlock t.rec_mutex;
    hook ev
  in
  Client.Keyed.run_ops ~on_event k.k_client ops

let keyed_histories t =
  match t.keyed with
  | None -> []
  | Some k ->
      locked t (fun () ->
          Hashtbl.fold
            (fun key r acc -> (key, Histories.Recorder.ops r) :: acc)
            k.k_recorders []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

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
  (* Group-wide counter for the poll group (every handle reports the
     same one); always 0 per handle for thread servers. *)
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

let history t = locked t (fun () -> Histories.Recorder.ops t.recorder)

let spans t =
  Client.spans t.writer.client
  @ List.concat_map
      (fun r -> Client.spans r.client)
      (Array.to_list t.readers)
  @ (match t.mux with Some m -> Client.Mux.spans m.m_mux | None -> [])
  @ (match t.keyed with Some k -> Client.Keyed.spans k.k_client | None -> [])

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
    (match t.mux with
    | Some { m_registry = Some src; _ } -> Obs.Metrics.merge_into ~dst src
    | _ -> ());
    (match t.keyed with
    | Some { k_registry = Some src; _ } -> Obs.Metrics.merge_into ~dst src
    | _ -> ());
    Some dst
  end

let stop t =
  Client.close t.writer.client;
  Array.iter (fun r -> Client.close r.client) t.readers;
  (match t.mux with
  | Some m ->
      Client.Mux.close m.m_mux;
      t.mux <- None
  | None -> ());
  (match t.keyed with
  | Some k ->
      Client.Keyed.close k.k_client;
      t.keyed <- None
  | None -> ());
  Array.iter Chaos.stop t.chaos_;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  match t.tmpdir with
  | None -> ()
  | Some dir -> ( try Unix.rmdir dir with Unix.Unix_error _ -> ())
