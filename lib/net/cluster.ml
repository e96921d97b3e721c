(* An engine appends to a log of its own in [record]; the histories are
   merged from the logs when asked for.  [spans] holds the spans its ops
   handed out, latest response first. *)
type engine = {
  client : Client.Keyed.t;
  registry : Obs.Metrics.t option;
  log : Record.log;
  mutable spans : Obs.Span.t list;
}

type t = {
  map : Shard.Map.t;
  endpoints : Endpoint.t array;
  mutable servers : Server.t array;
  server_registries : Obs.Metrics.t option array;
  mutable engines : engine list;  (* newest first *)
  (* Base objects keep per-reader round state, so a reader id is never
     handed out twice. *)
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

let start ?(metrics = false) ?opts ?(transport = `Unix) ?(domains = 1) ?map
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
  let registry () = if metrics then Some (Obs.Metrics.create ()) else None in
  let server_registries = Array.init s (fun _ -> registry ()) in
  let servers =
    Server.start_group
      ?metrics:
        (if metrics then Some (fun i -> Option.get server_registries.(i))
         else None)
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
    (* Histories, spans and rule windows all compare stamps of the
       recording's monotonic clock. *)
    record = Record.create ();
    tmpdir;
    with_metrics = metrics;
  }

let take ?session ?(lanes = 1) ?(inflight = lanes) ?(coalesce = 1) t =
  let registry = if t.with_metrics then Some (Obs.Metrics.create ()) else None in
  let client =
    Client.Keyed.connect ?session ?metrics:registry ?opts:t.copts
      ~now_us:(Record.now_us t.record) ~max_inflight:inflight
      ~reader:t.next_rid ~readers:lanes ~coalesce ~protocol:t.protocol
      ~map:t.map t.endpoints
  in
  t.next_rid <- t.next_rid + lanes;
  let e = { client; registry; log = Record.log t.record; spans = [] } in
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
  Client.Keyed.run_ops e.client ops ~on_event:(fun ev ->
      Record.event e.log ops ev;
      (match ev with
      | Client.Keyed.Respond { span = Some s; _ } -> e.spans <- s :: e.spans
      | Client.Keyed.Respond { span = None; _ } | Invoke _ -> ());
      on_event ev)

let keyed_histories t = Record.histories t.record

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
  Server.set_rules t.servers.(i - 1) ~now_us:(Record.now_us t.record) rules

let stats t i =
  check_index t i;
  Server.stats t.servers.(i - 1)

let now_us t = Record.now_us t.record ()

let endpoints t = t.endpoints

let alive t =
  Array.to_list t.servers
  |> List.filter_map (fun s ->
         if Server.alive s then Some (Server.index s) else None)

let by_id (a : Obs.Span.t) (b : Obs.Span.t) = Int.compare a.id b.id

let spans t =
  List.concat_map (fun e -> List.sort by_id e.spans) (List.rev t.engines)

let metrics t =
  if not t.with_metrics then None
  else begin
    let dst = Obs.Metrics.create () in
    let merge = Option.iter (fun src -> Obs.Metrics.merge_into ~dst src) in
    Array.iter merge t.server_registries;
    List.iter (fun e -> merge e.registry) (List.rev t.engines);
    Some dst
  end

(* The closed engines stay listed: their logs, spans and registries are
   the run's record, read after [stop] as before it. *)
let stop t =
  List.iter (fun e -> Client.Keyed.close e.client) t.engines;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  match t.tmpdir with
  | None -> ()
  | Some dir -> ( try Unix.rmdir dir with Unix.Unix_error _ -> ())
