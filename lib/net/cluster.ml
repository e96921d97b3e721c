(* Every client appends to a log of its own in [record]; the histories
   are merged from the logs when asked for. *)
type client_slot = {
  client : Client.t;
  registry : Obs.Metrics.t option;
  log : Record.log;
}

(* A cached engine client: its parked (timed-out) automata must carry
   over between calls, so it is rebuilt only when its parameters
   change. *)
type keyed_state = {
  k_inflight : int;
  k_readers : int;
  k_coalesce : int;
  k_map : Shard.Map.t;
  k_client : Client.Keyed.t;
  k_registry : Obs.Metrics.t option;
  k_log : Record.log;
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
  copts : Client.opts option;
  protocol : Protocols.t;
  record : Record.t;
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
  (* Histories, spans and chaos windows all compare stamps of the
     recording's monotonic clock. *)
  let record = Record.create () in
  let now_us = Record.now_us record in
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
      log = Record.log record;
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
    copts = opts;
    protocol;
    record;
    tmpdir;
    with_metrics = metrics;
  }

(* A single-register client runs one op at a time and reports no
   events, so its invocation and response are stamped around the call.
   A failed op stays open in the history until the slot's next op
   resumes it, exactly as for the engine's lanes. *)
let serial t slot ~reader kop run =
  let ops = [| kop |] in
  let write = Client.Keyed.op_is_write kop in
  let now = Record.now_us t.record in
  Record.event slot.log ops
    (Client.Keyed.Invoke
       { op = 0; key = 0; write; reader; joined = false; at_us = now () });
  let outcome = run slot.client in
  Record.event slot.log ops
    (Client.Keyed.Respond
       { op = 0; key = 0; write; reader; joined = false; at_us = now ();
         outcome });
  outcome

let write t v =
  serial t t.writer ~reader:0 (Client.Keyed.Write { key = 0; value = v })
    (fun c -> Client.write c v)

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  serial t t.readers.(reader - 1) ~reader (Client.Keyed.Read { key = 0 })
    Client.read

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
          Client.Keyed.connect ?metrics:registry ?opts:t.copts
            ~now_us:(Record.now_us t.record) ~max_inflight:inflight ~reader
            ~readers ~coalesce ~protocol:t.protocol ~map t.endpoints;
        k_registry = registry;
        k_log = Record.log t.record;
      }

let run_recorded ?(hook = ignore) k ops =
  let on_event ev =
    Record.event k.k_log ops ev;
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
  run_recorded k (Array.make ops (Client.Keyed.Read { key = 0 }))

let run_keyed ?(inflight = 16) ?(coalesce = 1) ?on_event t ~map ops =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.run_keyed: inflight %d" inflight);
  if Shard.Map.fleet map <> Array.length t.endpoints then
    invalid_arg
      (Printf.sprintf "Cluster.run_keyed: map fleet %d, cluster has %d"
         (Shard.Map.fleet map) (Array.length t.endpoints));
  let k = keyed_client t t.keyed ~map ~inflight ~readers:1 ~coalesce in
  t.keyed <- Some k;
  run_recorded ?hook:on_event k ops

let keyed_histories t = Record.histories t.record

let history t =
  Option.value (List.assoc_opt 0 (keyed_histories t)) ~default:[]

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

let now_us t = Record.now_us t.record ()

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
