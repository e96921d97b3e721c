(* The base-object fleet runs in a child process — this same executable
   re-executed in its hidden [fleet] role — so the client's and the
   servers' OCaml runtimes (and their stop-the-world minor collections)
   stay apart, and each side's CPU time can be read separately.

   The parent drives the child with one command per line on the child's
   stdin; the child answers one line per command on its stdout:

     (at start)   ready <port> ...        one TCP port per object
     cpu          cpu <seconds>           the child's Unix.times, user+sys
     stats        stats <messages> <partition violations>
     crash i      ok                      object i (1-based) crashes
     restart i    ok                      object i restarts, state wiped
     metrics      <JSONL lines> then end  every slot's registry, merged
     stop         bye                     graceful stop, then exit

   End of input (the parent died) stops the fleet too. *)

let protocol = Net.Protocols.regular_gc ~readers:1

(* ---- child side -------------------------------------------------------- *)

let serve args =
  let s, t, b, metrics =
    match args with
    | [ s; t; b; m ] ->
        (int_of_string s, int_of_string t, int_of_string b, m = "1")
    | _ -> failwith "fleet: expected <s> <t> <b> <metrics 0|1>"
  in
  let cfg = Quorum.Config.make_exn ~s ~t ~b in
  let regs = Array.init s (fun _ -> Obs.Metrics.create ()) in
  let endpoints =
    Array.init s (fun _ -> Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
  in
  let handles =
    Net.Server.start_group
      ?metrics:(if metrics then Some (fun i -> regs.(i)) else None)
      ~domains:1 ~protocol ~cfg endpoints
  in
  let reply line =
    print_string line;
    print_char '\n';
    flush stdout
  in
  let port h =
    match Net.Server.endpoint h with
    | Net.Endpoint.Tcp { port; _ } -> string_of_int port
    | Net.Endpoint.Unix_sock _ -> assert false
  in
  reply ("ready " ^ String.concat " " (Array.to_list (Array.map port handles)));
  let stop () = Array.iter Net.Server.stop handles in
  let rec loop () =
    match String.split_on_char ' ' (input_line stdin) with
    | exception End_of_file -> stop ()
    | [ "cpu" ] ->
        let tm = Unix.times () in
        reply (Printf.sprintf "cpu %.9f" (tm.Unix.tms_utime +. tm.Unix.tms_stime));
        loop ()
    | [ "stats" ] ->
        let msgs =
          Array.fold_left
            (fun acc h -> acc + (Net.Server.stats h).Net.Server.messages)
            0 handles
        in
        reply
          (Printf.sprintf "stats %d %d" msgs
             (Net.Server.partition_violations handles.(0)));
        loop ()
    | [ "crash"; i ] ->
        Net.Server.crash handles.(int_of_string i - 1);
        reply "ok";
        loop ()
    | [ "restart"; i ] ->
        let i = int_of_string i - 1 in
        handles.(i) <- Net.Server.restart ~wipe:true handles.(i);
        reply "ok";
        loop ()
    | [ "metrics" ] ->
        let merged = Obs.Metrics.create () in
        Array.iter (fun r -> Obs.Metrics.merge_into ~dst:merged r) regs;
        print_string (Obs.Export.metrics_jsonl merged);
        reply "end";
        loop ()
    | [ "stop" ] ->
        stop ();
        reply "bye"
    | _ -> failwith "fleet: unknown command"
  in
  loop ()

(* ---- parent side ------------------------------------------------------- *)

type t = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  mutable ports : int array;
  mutable pending : int;  (* commands sent without waiting for the reply *)
  mutable stopped : bool;
}

let live : t list ref = ref []

let reap t =
  if not t.stopped then begin
    t.stopped <- true;
    close_out_noerr t.oc;
    close_in_noerr t.ic;
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    live := List.filter (fun u -> u != t) !live
  end

(* A benchmark that dies half-way must not leave fleets running. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap t)
        !live)

let spawn ~cfg ~metrics =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      exe;
      "fleet";
      string_of_int cfg.Quorum.Config.s;
      string_of_int cfg.Quorum.Config.t;
      string_of_int cfg.Quorum.Config.b;
      (if metrics then "1" else "0");
    |]
  in
  let pid = Unix.create_process exe args in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let oc = Unix.out_channel_of_descr in_w in
  let t = { pid; ic; oc; ports = [||]; pending = 0; stopped = false } in
  live := t :: !live;
  match String.split_on_char ' ' (input_line ic) with
  | "ready" :: ports ->
      t.ports <- Array.of_list (List.map int_of_string ports);
      t
  | _ -> failwith "fleet: bad ready line"

let endpoints t =
  Array.map (fun port -> Net.Endpoint.Tcp { host = "127.0.0.1"; port }) t.ports

let send t cmd =
  output_string t.oc cmd;
  output_char t.oc '\n';
  flush t.oc

(* Fire a command without waiting: used from inside a [run_ops] event
   callback, where blocking on the child would stall the client. *)
let send_async t cmd =
  send t cmd;
  t.pending <- t.pending + 1

let drain t =
  while t.pending > 0 do
    if input_line t.ic <> "ok" then failwith "fleet: command failed";
    t.pending <- t.pending - 1
  done

let request t cmd =
  drain t;
  send t cmd;
  input_line t.ic

let cpu t = Scanf.sscanf (request t "cpu") "cpu %f" Fun.id

(* Protocol messages handled so far and partition violations. *)
let stats t = Scanf.sscanf (request t "stats") "stats %d %d" (fun m v -> (m, v))

let metrics t =
  drain t;
  send t "metrics";
  let buf = Buffer.create 4096 in
  let rec read () =
    match input_line t.ic with
    | "end" -> ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        read ()
  in
  read ();
  match Obs.Export.metrics_of_jsonl (Buffer.contents buf) with
  | Ok m -> m
  | Error e -> failwith ("fleet: metrics: " ^ e)

let stop t =
  if request t "stop" <> "bye" then failwith "fleet: bad stop reply";
  reap t
