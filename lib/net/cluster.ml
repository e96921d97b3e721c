(* An engine appends to a log of its own in [record]; the histories and
   spans are read from the logs when asked for. *)
type engine = {
  client : Client.Keyed.t;
  registry : Obs.Metrics.t;
  log : Core.Record.log;
}

type t = {
  map : Shard.Map.t;
  endpoints : Endpoint.t array;
  mutable servers : Server.t array;
  server_registries : Obs.Metrics.t array;
  mutable engines : engine list;  (* newest first *)
  (* Base objects keep per-reader round state, so a reader id is never
     handed out twice. *)
  mutable next_rid : int;
  copts : Client.opts option;
  protocol : Protocols.t;
  t0 : int64;  (* the cluster's clock: microseconds since [start] *)
  record : Core.Record.t;
  tmpdir : string option;
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

let start ?opts ?(transport = `Unix) ?(domains = 1) ?map
    ~protocol ~cfg () =
  let map = Option.value map ~default:(Shard.Map.single cfg) in
  if Shard.Map.cfg map <> cfg then
    invalid_arg
      (Fmt.str "Cluster.start: map for %a, cluster for %a" Quorum.Config.pp
         (Shard.Map.cfg map) Quorum.Config.pp cfg);
  let s = Shard.Map.fleet map in
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
  let server_registries = Array.init s (fun _ -> Obs.Metrics.create ()) in
  let servers =
    Server.start_group
      ~metrics:(fun i -> server_registries.(i))
      ~domains ~protocol ~cfg endpoints
  in
  {
    map;
    (* Ephemeral TCP ports are only known after bind. *)
    endpoints = Array.map Server.endpoint servers;
    servers;
    server_registries;
    engines = [];
    next_rid = 1;
    copts = opts;
    protocol;
    (* Histories, spans and rule windows all compare stamps of this
       monotonic clock. *)
    t0 = Monotonic_clock.now ();
    record = Core.Record.create ();
    tmpdir;
  }

let now_us t = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t.t0) / 1000

let take ?session ?(lanes = 1) ?(inflight = lanes) ?(coalesce = 1) t =
  let registry = Obs.Metrics.create () in
  let client =
    Client.Keyed.connect ?session ~metrics:registry ?opts:t.copts
      ~now_us:(fun () -> now_us t) ~max_inflight:inflight
      ~reader:t.next_rid ~readers:lanes ~coalesce ~protocol:t.protocol
      ~map:t.map t.endpoints
  in
  t.next_rid <- t.next_rid + lanes;
  let e = { client; registry; log = Core.Record.log t.record } in
  t.engines <- e :: t.engines;
  e

let engine ?lanes ?inflight ?coalesce t = take ?lanes ?inflight ?coalesce t

(* Readers first, so reader j gets id j; the writer's engine takes the
   next id, which it never reads with. *)
let processes t ~readers =
  if t.engines <> [] then
    invalid_arg "Cluster.processes: the cluster already handed out engines";
  let rs = Array.init readers (fun _ -> take t) in
  (take ~session:"w" t, rs)

let run ?(on_event = ignore) e ops =
  let op = Array.get ops in
  Client.Keyed.run_ops e.client ops ~on_event:(fun ev ->
      Core.Record.event e.log op ev;
      on_event ev)

let keyed_histories t = Core.Record.histories t.record

let history t =
  Option.value (List.assoc_opt 0 (keyed_histories t)) ~default:[]

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
  if Server.alive t.servers.(i - 1) then Error (`Still_alive i)
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

let set_rules t i rules =
  check_index t i;
  Server.set_rules t.servers.(i - 1) ~now_us:(fun () -> now_us t) rules

let stats t i =
  check_index t i;
  Server.stats t.servers.(i - 1)

let endpoints t = t.endpoints

let alive t =
  Array.to_list t.servers
  |> List.filter_map (fun s ->
         if Server.alive s then Some (Server.index s) else None)

let spans t = Core.Record.spans t.record

let metrics t =
  let dst = Obs.Metrics.create () in
  Array.iter (fun src -> Obs.Metrics.merge_into ~dst src) t.server_registries;
  List.iter
    (fun e -> Obs.Metrics.merge_into ~dst e.registry)
    (List.rev t.engines);
  dst

(* The closed engines stay listed: their logs, spans and registries are
   the run's record, read after [stop] as before it. *)
let stop t =
  List.iter (fun e -> Client.Keyed.close e.client) t.engines;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  match t.tmpdir with
  | None -> ()
  | Some dir -> ( try Unix.rmdir dir with Unix.Unix_error _ -> ())
