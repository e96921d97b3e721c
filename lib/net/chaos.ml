type direction = To_server | To_client

type action = Drop | Delay of int | Duplicate of int | Corrupt | Reorder

type rule = {
  dir : direction;
  sender : string option;
  from_us : int;
  until_us : int;
  act : action;
}

type stats = {
  forwarded : int;
  dropped : int;
  delayed : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
}

(* One relayed session: the accepted client socket paired with its
   upstream dial.  [c_sender] is learned from the session's [Hello] and
   attributes frames that carry no inline sender. *)
type conn = {
  c_client : Unix.file_descr;
  c_server : Unix.file_descr;
  mutable c_sender : string;
  mutable c_open : bool;
  c_lock : Mutex.t;
}

type t = {
  listen_ep : Endpoint.t;
  target_ep : Endpoint.t;
  now_us : unit -> int;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  mutable rules_ : rule list;
  mutable conns : conn list;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  mutable s_forwarded : int;
  mutable s_dropped : int;
  mutable s_delayed : int;
  mutable s_duplicated : int;
  mutable s_corrupted : int;
  mutable s_reordered : int;
}

let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump t field =
  locked t (fun () ->
      match field with
      | `Forwarded -> t.s_forwarded <- t.s_forwarded + 1
      | `Dropped -> t.s_dropped <- t.s_dropped + 1
      | `Delayed -> t.s_delayed <- t.s_delayed + 1
      | `Duplicated -> t.s_duplicated <- t.s_duplicated + 1
      | `Corrupted -> t.s_corrupted <- t.s_corrupted + 1
      | `Reordered -> t.s_reordered <- t.s_reordered + 1)

let close_conn t conn =
  let was_open =
    Mutex.lock conn.c_lock;
    let o = conn.c_open in
    conn.c_open <- false;
    Mutex.unlock conn.c_lock;
    o
  in
  if was_open then begin
    (* shutdown first so a peer (or our own pump) blocked on the socket
       wakes up instead of hanging on a silently closed fd *)
    shutdown_quietly conn.c_client;
    shutdown_quietly conn.c_server;
    Endpoint.close_quietly conn.c_client;
    Endpoint.close_quietly conn.c_server;
    locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns)
  end

(* ----- frame relaying ---------------------------------------------------- *)

let corrupt_payload p =
  let n = String.length p in
  if n <= Codec.header_bytes then p
  else begin
    let b = Bytes.of_string p in
    for i = Codec.header_bytes to n - 1 do
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xa5)
    done;
    Bytes.unsafe_to_string b
  end

let send_frame dst payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  Codec.send dst (Bytes.unsafe_to_string b)

exception Relay_closed

(* Apply the active rules to one frame payload and forward the
   survivors.  [held] is the reorder slot: a held frame leaves after
   the next frame on this direction (or when the link goes quiet). *)
let process_frame t conn ~dir ~dst ~held payload =
  let now = t.now_us () in
  let sender =
    match Codec.peek_sender payload with
    | Some s ->
        if dir = To_server && conn.c_sender = "" then conn.c_sender <- s;
        Some s
    | None -> if conn.c_sender = "" then None else Some conn.c_sender
  in
  let active =
    List.filter
      (fun r ->
        r.dir = dir
        && now >= r.from_us
        && now < r.until_us
        &&
        match r.sender with
        | None -> true
        | Some who -> sender = Some who)
      t.rules_
  in
  if List.exists (fun r -> r.act = Drop) active then bump t `Dropped
  else begin
    let payload =
      if List.exists (fun r -> r.act = Corrupt) active then begin
        bump t `Corrupted;
        corrupt_payload payload
      end
      else payload
    in
    let delay_us =
      List.fold_left
        (fun acc r -> match r.act with Delay d -> acc + d | _ -> acc)
        0 active
    in
    if delay_us > 0 then begin
      bump t `Delayed;
      Thread.delay (float_of_int delay_us /. 1e6)
    end;
    let copies =
      List.fold_left
        (fun acc r -> match r.act with Duplicate c -> acc + c | _ -> acc)
        0 active
    in
    let reorder = List.exists (fun r -> r.act = Reorder) active in
    if reorder && !held = None && copies = 0 then begin
      bump t `Reordered;
      held := Some payload
    end
    else begin
      send_frame dst payload;
      bump t `Forwarded;
      for _ = 1 to copies do
        send_frame dst payload;
        bump t `Duplicated
      done;
      match !held with
      | None -> ()
      | Some p ->
          held := None;
          send_frame dst p;
          bump t `Forwarded
    end
  end

(* Relay one direction of a session.  The pump owns a private receive
   buffer and cuts it into self-delimiting frames; a read that would
   block is bounded by a short [select] so held (reordered) frames never
   stall behind a quiet link and a stopped proxy is noticed promptly. *)
let pump t conn ~dir ~src ~dst =
  let buf = ref (Bytes.create 8192) in
  let len = ref 0 in
  let held = ref None in
  let flush_held () =
    match !held with
    | None -> ()
    | Some p ->
        held := None;
        send_frame dst p;
        bump t `Forwarded
  in
  let ensure cap =
    if Bytes.length !buf < cap then begin
      let fresh = Bytes.create (max cap (2 * Bytes.length !buf)) in
      Bytes.blit !buf 0 fresh 0 !len;
      buf := fresh
    end
  in
  (* Consume every complete frame at the front of the buffer. *)
  let rec drain off =
    if !len - off < 4 then off
    else
      let b = !buf in
      let n =
        (Bytes.get_uint8 b off lsl 24)
        lor (Bytes.get_uint8 b (off + 1) lsl 16)
        lor (Bytes.get_uint8 b (off + 2) lsl 8)
        lor Bytes.get_uint8 b (off + 3)
      in
      if n > Codec.max_frame then raise Relay_closed
      else if !len - off - 4 < n then off
      else begin
        let payload = Bytes.sub_string b (off + 4) n in
        process_frame t conn ~dir ~dst ~held payload;
        drain (off + 4 + n)
      end
  in
  let compact off =
    if off > 0 then begin
      Bytes.blit !buf off !buf 0 (!len - off);
      len := !len - off
    end
  in
  let rec loop () =
    if t.stopped || not conn.c_open then ()
    else
      match Unix.select [ src ] [] [] 0.01 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ ->
          flush_held ();
          loop ()
      | _ :: _, _, _ ->
          ensure (!len + 8192);
          let n = Unix.read src !buf !len 8192 in
          if n = 0 then raise Relay_closed
          else begin
            len := !len + n;
            compact (drain 0);
            loop ()
          end
  in
  (try loop () with
  | Relay_closed | Unix.Unix_error _ -> ()
  | Sys_error _ -> ());
  (try flush_held () with Unix.Unix_error _ | Sys_error _ -> ());
  close_conn t conn

(* ----- session setup ----------------------------------------------------- *)

let handle_accept t cfd =
  match Endpoint.dial t.target_ep with
  | exception (Unix.Unix_error _ | Failure _) ->
      (* Target down: a client dialing through us experiences exactly a
         dead server — immediate EOF after connect. *)
      Endpoint.close_quietly cfd
  | sfd ->
      let conn =
        {
          c_client = cfd;
          c_server = sfd;
          c_sender = "";
          c_open = true;
          c_lock = Mutex.create ();
        }
      in
      locked t (fun () -> t.conns <- conn :: t.conns);
      if t.stopped then close_conn t conn
      else begin
        ignore
          (Thread.create
             (fun () ->
               pump t conn ~dir:To_server ~src:cfd ~dst:sfd)
             ());
        ignore
          (Thread.create
             (fun () ->
               pump t conn ~dir:To_client ~src:sfd ~dst:cfd)
             ())
      end

(* Bounded select before accept: closing the listener from [stop] must
   wake this thread even on platforms where close alone does not. *)
let rec accept_loop t =
  if not t.stopped then
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error _ -> ()  (* listener closed: stopping *)
    | [], _, _ -> accept_loop t
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | cfd, _ ->
            Endpoint.set_nodelay cfd;
            handle_accept t cfd;
            accept_loop t
        | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
            accept_loop t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
        | exception Unix.Unix_error _ -> ())

let start ?(rules = []) ~now_us ~listen ~target () =
  Endpoint.ignore_sigpipe ();
  let listen_fd, listen_ep = Endpoint.listen listen in
  let t =
    {
      listen_ep;
      target_ep = target;
      now_us;
      listen_fd;
      lock = Mutex.create ();
      rules_ = rules;
      conns = [];
      stopped = false;
      accept_thread = None;
      s_forwarded = 0;
      s_dropped = 0;
      s_delayed = 0;
      s_duplicated = 0;
      s_corrupted = 0;
      s_reordered = 0;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let endpoint t = t.listen_ep

let target t = t.target_ep

let set_rules t rules = locked t (fun () -> t.rules_ <- rules)

let rules t = t.rules_

let stats t =
  locked t (fun () ->
      {
        forwarded = t.s_forwarded;
        dropped = t.s_dropped;
        delayed = t.s_delayed;
        duplicated = t.s_duplicated;
        corrupted = t.s_corrupted;
        reordered = t.s_reordered;
      })

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Endpoint.close_quietly t.listen_fd;
    Endpoint.cleanup t.listen_ep;
    let conns = locked t (fun () -> t.conns) in
    List.iter (close_conn t) conns;
    match t.accept_thread with
    | None -> ()
    | Some th ->
        t.accept_thread <- None;
        Thread.join th
  end
