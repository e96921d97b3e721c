type stats = {
  connections : int;
  messages : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
}

type t = {
  endpoint : Endpoint.t;
  index : int;
  alive_ : unit -> bool;
  stats_ : unit -> stats;
  set_rules_ : now_us:(unit -> int) -> Chaos.rule list -> unit;
  stop_ : graceful:bool -> unit;
  restart_ : wipe:bool -> t;
  violations_ : unit -> int;
}

(* Seconds on the monotonic clock: backpressure stalls, reply delays and
   the graceful drain deadline are durations, which a wall-clock step
   must not distort. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One key's automaton and, per sender, the last reply it sent: a
   request that reply answers is a retransmit (a sender's timestamps
   only grow), and gets the reply again instead of a step the automaton
   would ignore — so a lost reply is not lost for good.  A key has a
   handful of senders: a short list costs less to make and to search
   than a table per key. *)
type 'm last = { who : Sim.Proc_id.t; mutable reply : 'm }

type ('o, 'm) entry = { mutable obj : 'o; mutable last : 'm last list }

(* A slot's fault rules and the clock their windows read. *)
type faults = { clock : unit -> int; rules : Chaos.rule list }

(* ===== sharded poll event loop =========================================== *)

(* One connection in a poll group: nonblocking fd, its own incremental
   Reader and outbound scratch.  [gclosing] marks a session that ends
   once its pending bytes flush (terminal [Err], received [Err],
   graceful stop).  [gpaused] is backpressure: the write queue crossed
   the high watermark, so the owner stops reading this socket — the
   peer's window blocks instead of any frame being dropped. *)
type gconn = {
  gfd : Unix.file_descr;
  gobj : int;  (* slot in the group's arrays, 0-based *)
  greader : Codec.Reader.t;
  gout : Codec.Out.t;
  mutable greeted : bool;  (* a valid [Hello] arrived *)
  mutable gsender : Sim.Proc_id.t option;
      (* the [Hello]'s sender: whom control frames are attributed to *)
  mutable gclosing : bool;
  mutable gframes : int;  (* frames queued since the last completed flush *)
  mutable gpaused : bool;
  mutable gpause_at : float;
}

(* Seconds a graceful stop lets a slot's queued replies flush before
   its remaining connections close anyway. *)
let drain_timeout = 5.0

(* All base objects of a cluster sharded across [domains] event-loop
   domains.  Slot [i] belongs to domain [owner.(i) = i mod domains],
   which selects on the slot's listening socket next to its
   connections: accept, read, decode, automaton step, encode and flush
   for that slot all happen on one domain.  No automaton is ever
   stepped from two domains: the dispatch table is fixed at start, a
   per-slot stepper check asserts it at runtime, and
   [partition_violations] exposes the count.

   Control plane (stop/restart/alive/handle wiring) goes through one
   mutex + condvar.  A stop request or a restart records itself in the
   control arrays, bumps [gen] and pokes the owner's wake pipe; a
   worker takes the mutex only when [gen] has moved, or when it is idle
   and deciding whether to exit.  Each returned handle stops, crashes
   and restarts its object independently; domains exit when their work
   is gone and are respawned by the first restart. *)
let start_group ?metrics ?indices ?(domains = 1) ?(queue_hi = 256 * 1024)
    ~protocol ~cfg endpoints =
  Endpoint.ignore_sigpipe ();
  let (Protocols.Packed { proto = (module P); codec }) = protocol in
  let s = Array.length endpoints in
  if s = 0 then invalid_arg "Server.start_group: no endpoints";
  let indices =
    match indices with
    | None -> Array.init s (fun i -> i + 1)
    | Some a ->
        if Array.length a <> s then
          invalid_arg "Server.start_group: indices/endpoints length mismatch";
        a
  in
  let nd = max 1 (min domains s) in
  let queue_hi = max 4096 queue_hi in
  let queue_lo = max 1 (queue_hi / 4) in
  let owner = Array.init s (fun i -> i mod nd) in
  let reg_for i = match metrics with None -> None | Some f -> Some (f i) in
  let fresh i = P.obj_init ~cfg ~index:indices.(i) in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let locked f =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f
  in
  (* Per-slot keyed object tables: key id -> automaton state and last
     replies, each key materialized on first contact.  A table is only
     ever touched by the slot's owning domain (the same invariant
     [steppers] asserts for the automata), so no lock guards it. *)
  let objs : (int, (P.obj, P.msg) entry) Hashtbl.t array =
    Array.init s (fun _ -> Hashtbl.create 16)
  in
  let entry_for i key =
    match Hashtbl.find_opt objs.(i) key with
    | Some e -> e
    | None ->
        let e = { obj = fresh i; last = [] } in
        Hashtbl.replace objs.(i) key e;
        e
  in
  (* A live slot's listener, until its owner takes the slot's stop
     request and closes it. *)
  let listeners = Array.make s None in
  let actuals = Array.copy endpoints in
  (try
     Array.iteri
       (fun i ep ->
         let fd, actual = Endpoint.listen ep in
         Unix.set_nonblock fd;
         listeners.(i) <- Some fd;
         actuals.(i) <- actual)
       endpoints
   with e ->
     Array.iteri
       (fun i l ->
         Option.iter
           (fun fd ->
             Endpoint.close_quietly fd;
             Endpoint.cleanup actuals.(i))
           l)
       listeners;
     raise e);
  let alive = Array.make s true in
  let stop_req = Array.make s None in
  let gen = Atomic.make 0 in
  (* Stats, rules and the partition check are atomics so handles and
     workers never contend on the mutex for them.  Rules belong to the
     slot, so they outlive a crash and restart of its object. *)
  let counters () = Array.init s (fun _ -> Atomic.make 0) in
  let conn_counts = counters () and msg_counts = counters () in
  let dropped = counters () and duplicated = counters () in
  let corrupted = counters () and delayed = counters () in
  let faults = Array.init s (fun _ -> Atomic.make None) in
  let violations = Atomic.make 0 in
  let steppers = Array.init s (fun _ -> Atomic.make (-1)) in
  (* One wake pipe per worker, open while any domain may run: [reap]
     closes them once every domain is joined and [restart] opens them
     again.  Pokes happen under the mutex and skip closed pipes, so none
     can reach a reused fd. *)
  let wakes = ref [||] in
  let open_wakes () =
    if Array.length !wakes = 0 then
      wakes :=
        Array.init nd (fun _ ->
            let rd, wr = Unix.pipe () in
            Unix.set_nonblock rd;
            (rd, wr))
  in
  let close_wakes () =
    Array.iter
      (fun (rd, wr) ->
        Endpoint.close_quietly rd;
        Endpoint.close_quietly wr)
      !wakes;
    wakes := [||]
  in
  let wake d =
    if Array.length !wakes > 0 then
      try ignore (Unix.write (snd !wakes.(d)) (Bytes.make 1 'x') 0 1)
      with Unix.Unix_error _ -> ()
  in
  let drain_wake rd buf =
    let rec go () =
      match Unix.read rd buf 0 (Bytes.length buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> ()
      | 0 -> ()
      | _ -> go ()
    in
    go ()
  in
  let worker_running = Array.make nd false in
  let spawned : unit Domain.t list ref = ref [] in
  let worker d wake_rd () =
    let owned = List.filter (fun i -> owner.(i) = d) (List.init s Fun.id) in
    let wake_buf = Bytes.create 64 in
    let discard = Bytes.create 4096 in
    (* Domain-local: only this worker ever touches these, or any
       registry/automaton of a slot it owns.  [lsocks] holds the owned
       slots' listeners as of control generation [seen]. *)
    let seen = ref (-1) in
    let lsocks : (Unix.file_descr * int) list ref = ref [] in
    let conns : (Unix.file_descr, gconn) Hashtbl.t = Hashtbl.create 16 in
    let draining : (int, float) Hashtbl.t = Hashtbl.create 4 in
    let resumed : gconn list ref = ref [] in
    let count i name =
      match reg_for i with None -> () | Some reg -> Obs.Metrics.incr reg name
    in
    let meter i stage m =
      match reg_for i with
      | None -> ()
      | Some reg ->
          Obs.Metrics.incr reg
            ("wire." ^ Obs.Wire.to_string (P.msg_class m) ^ "." ^ stage)
    in
    let observe i name bounds v =
      match reg_for i with
      | None -> ()
      | Some reg -> Obs.Metrics.observe_int reg name ~bounds v
    in
    let conns_of i =
      Hashtbl.fold (fun _ c acc -> if c.gobj = i then c :: acc else acc) conns []
    in
    let finish_slot i =
      Hashtbl.remove draining i;
      Atomic.set steppers.(i) (-1);
      locked (fun () ->
          alive.(i) <- false;
          Condition.broadcast cond)
    in
    let close_conn c =
      Hashtbl.remove conns c.gfd;
      Endpoint.close_quietly c.gfd;
      if Hashtbl.mem draining c.gobj && conns_of c.gobj = [] then
        finish_slot c.gobj
    in
    let unpause c =
      if c.gpaused && Codec.Out.pending c.gout <= queue_lo then begin
        c.gpaused <- false;
        let stalled_us = int_of_float ((now_s () -. c.gpause_at) *. 1e6) in
        observe c.gobj "wire.backpressure_stalls" Obs.Metrics.wallclock_bounds
          (max 0 stalled_us);
        resumed := c :: !resumed
      end
    in
    let append_frame c fr =
      let before = Codec.Out.length c.gout in
      Codec.encode_frame_into codec c.gout fr;
      observe c.gobj "wire.bytes_per_frame" Obs.Metrics.bytes_bounds
        (Codec.Out.length c.gout - before);
      c.gframes <- c.gframes + 1;
      if (not c.gpaused) && Codec.Out.pending c.gout > queue_hi then begin
        c.gpaused <- true;
        c.gpause_at <- now_s ()
      end
    in
    let try_flush c =
      if Codec.Out.pending c.gout > 0 then begin
        observe c.gobj "wire.queue_depth" Obs.Metrics.depth_bounds c.gframes;
        match Codec.flush_nonblock c.gfd c.gout with
        | `Done ->
            observe c.gobj "wire.batch_size" Obs.Metrics.batch_bounds c.gframes;
            c.gframes <- 0;
            unpause c;
            if c.gclosing then close_conn c
        | `Blocked -> unpause c
        | exception Unix.Unix_error _ -> close_conn c
      end
      else if c.gclosing then close_conn c
    in
    (* Replies a [Delay] rule holds back, earliest due first. *)
    let held = ref [] in
    let emit c fr (f : Chaos.fate) =
      for _ = 0 to f.copies do
        let at = Codec.Out.length c.gout in
        append_frame c fr;
        if f.corrupt then Codec.corrupt_frame c.gout ~at
      done;
      if f.corrupt then Atomic.incr corrupted.(c.gobj);
      ignore (Atomic.fetch_and_add duplicated.(c.gobj) f.copies)
    in
    (* Every frame the server sends passes its slot's reply rules,
       attributed to [sender]. *)
    let queue c ~sender fr =
      match Atomic.get faults.(c.gobj) with
      | None -> append_frame c fr
      | Some { clock; rules } ->
          let f = Chaos.fate rules Chaos.To_client ~sender ~now_us:(clock ()) in
          if f.drop then Atomic.incr dropped.(c.gobj)
          else if f.delay_us > 0 then begin
            Atomic.incr delayed.(c.gobj);
            let due = now_s () +. (float_of_int f.delay_us *. 1e-6) in
            held :=
              List.merge
                (fun (a, _) (b, _) -> Float.compare a b)
                !held
                [ (due, (c, fr, f)) ]
          end
          else emit c fr f
    in
    let release_held () =
      match !held with
      | [] -> ()
      | _ :: _ ->
          let now = now_s () in
          let ready, later = List.partition (fun (due, _) -> due <= now) !held in
          held := later;
          List.iter
            (fun (_, (c, fr, f)) ->
              (* the connection may have closed, and its fd been reused *)
              match Hashtbl.find_opt conns c.gfd with
              | Some c' when c' == c ->
                  emit c fr f;
                  try_flush c
              | _ -> ())
            ready
    in
    let reject c msg =
      queue c ~sender:c.gsender (Codec.Err msg);
      c.gclosing <- true
    in
    let deliver c ~key ~src ~sender m =
      let i = c.gobj in
      (* Partition-safety check: the routing table must have sent this
         connection to the slot's owner, and only one domain id may ever
         claim a live slot.  Keys nest inside slots (every key's state
         lives in its slot's table), so the per-slot check covers every
         keyed automaton too. *)
      if owner.(i) <> d then Atomic.incr violations;
      let me = (Domain.self () :> int) in
      let st = steppers.(i) in
      (match Atomic.get st with
      | -1 ->
          if
            (not (Atomic.compare_and_set st (-1) me)) && Atomic.get st <> me
          then Atomic.incr violations
      | id when id = me -> ()
      | _ -> Atomic.incr violations);
      let e = entry_for i key in
      Atomic.incr msg_counts.(i);
      count i "net.server.messages";
      meter i "delivered" m;
      let last = List.find_opt (fun l -> Sim.Proc_id.equal l.who src) e.last in
      let reply =
        match last with
        | Some l when Codec.answers codec ~request:m l.reply -> Some l.reply
        | _ ->
            let obj', reply = P.obj_handle e.obj ~src m in
            e.obj <- obj';
            (match (reply, last) with
            | Some r, Some l -> l.reply <- r
            | Some r, None -> e.last <- { who = src; reply = r } :: e.last
            | None, _ -> ());
            reply
      in
      match reply with
      | Some r ->
          meter i "sent" r;
          queue c ~sender:(Some src) (Codec.Msg_key { key; sender; msg = r })
      | None -> ()
    in
    let handle c ~sender = function
      | Codec.Hello { proto; sender = name; obj = dialed } ->
          let index = indices.(c.gobj) in
          if proto <> P.name then
            reject c
              (Printf.sprintf "server hosts protocol %s, client speaks %s"
                 P.name proto)
          else if dialed <> 0 && dialed <> index then
            reject c
              (Printf.sprintf "server hosts object %d, client dialed %d" index
                 dialed)
          else if sender = None then
            reject c (Printf.sprintf "invalid sender %S" name)
          else begin
            c.greeted <- true;
            queue c ~sender (Codec.Hello_ack { proto = P.name; obj = index })
          end
      | Codec.Msg_key { key; sender = name; msg } -> (
          if not c.greeted then reject c "protocol message before hello"
          else
            match sender with
            | None -> reject c (Printf.sprintf "invalid sender %S" name)
            | Some src -> deliver c ~key ~src ~sender:name msg)
      | Codec.Hello_ack _ -> reject c "unexpected hello_ack"
      | Codec.Err _ -> c.gclosing <- true
    in
    (* Every decoded frame passes its slot's request rules first, [Hello]
       included: a dropped one never happened, a duplicated one is
       handled again. *)
    let on_frame c fr =
      let sender =
        match fr with
        | Codec.Hello { sender; _ } ->
            c.gsender <- Sim.Proc_id.of_string sender;
            c.gsender
        | Codec.Msg_key { sender; _ } -> Sim.Proc_id.of_string sender
        | Codec.Hello_ack _ | Codec.Err _ -> c.gsender
      in
      match Atomic.get faults.(c.gobj) with
      | None -> handle c ~sender fr
      | Some { clock; rules } ->
          let f = Chaos.fate rules Chaos.To_server ~sender ~now_us:(clock ()) in
          if f.drop then Atomic.incr dropped.(c.gobj)
          else begin
            ignore (Atomic.fetch_and_add duplicated.(c.gobj) f.copies);
            for _ = 0 to f.copies do
              if not c.gclosing then handle c ~sender fr
            done
          end
    in
    (* Decode and step every complete frame already buffered; stops
       early when backpressure pauses the connection (the rest of the
       buffer waits for the resume). *)
    let process_frames c =
      let rec go () =
        if (not c.gclosing) && (not c.gpaused) && Hashtbl.mem conns c.gfd then
          match Codec.Reader.next codec c.greader with
          | Ok `Awaiting -> ()
          | Ok (`Frame f) ->
              on_frame c f;
              go ()
          | Error e ->
              count c.gobj "net.server.decode_errors";
              reject c e
      in
      go ();
      if Hashtbl.mem conns c.gfd then try_flush c
    in
    let handle_readable c =
      if c.gclosing then begin
        (* Session is ending: discard input, but keep watching for the
           peer's EOF so half-closed sockets do not linger. *)
        match Unix.read c.gfd discard 0 (Bytes.length discard) with
        | 0 -> close_conn c
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | exception Unix.Unix_error _ -> close_conn c
        | _ -> ()
      end
      else
        match Codec.recv_into c.gfd c.greader with
        | 0 -> close_conn c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> close_conn c
        | _ -> process_frames c
    in
    let rec accept_all i lfd =
      match Unix.accept lfd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          (match Unix.set_nonblock fd with
          | exception Unix.Unix_error _ -> Endpoint.close_quietly fd
          | () ->
              Endpoint.set_nodelay fd;
              Atomic.incr conn_counts.(i);
              count i "net.server.connections";
              Hashtbl.replace conns fd
                {
                  gfd = fd;
                  gobj = i;
                  greader = Codec.Reader.create ();
                  gout = Codec.Out.create ();
                  greeted = false;
                  gsender = None;
                  gclosing = false;
                  gframes = 0;
                  gpaused = false;
                  gpause_at = 0.;
                });
          accept_all i lfd
    in
    let stop_slot (i, mode) =
      match mode with
      | `Graceful ->
          (* Stop reading, but drain every queued reply before the
             socket closes: in-flight batches must reach the peer
             complete, never truncated mid-frame. *)
          List.iter
            (fun c ->
              c.gclosing <- true;
              if Codec.Out.pending c.gout = 0 then close_conn c)
            (conns_of i);
          if conns_of i = [] then finish_slot i
          else Hashtbl.replace draining i (now_s () +. drain_timeout)
      | `Crash ->
          List.iter close_conn (conns_of i);
          finish_slot i
    in
    (* Once [gen] has moved: take the owned slots' stop requests, closing
       each stopped slot's listener (no other domain selects on it), and
       re-read their listeners.  The stops run after the mutex is
       released, because [finish_slot] takes it. *)
    let sync () =
      if Atomic.get gen <> !seen then
        List.iter stop_slot
          (locked (fun () ->
               seen := Atomic.get gen;
               let stops =
                 List.filter_map
                   (fun i ->
                     match (stop_req.(i), listeners.(i)) with
                     | Some mode, Some fd ->
                         stop_req.(i) <- None;
                         listeners.(i) <- None;
                         Endpoint.close_quietly fd;
                         Endpoint.cleanup actuals.(i);
                         Some (i, mode)
                     | _ -> None)
                   owned
               in
               lsocks :=
                 List.filter_map
                   (fun i -> Option.map (fun fd -> (fd, i)) listeners.(i))
                   owned;
               stops))
    in
    let enforce_deadlines () =
      if Hashtbl.length draining > 0 then begin
        let now = now_s () in
        let expired =
          Hashtbl.fold
            (fun i deadline acc -> if now >= deadline then i :: acc else acc)
            draining []
        in
        List.iter
          (fun i ->
            match conns_of i with
            | [] -> finish_slot i
            | mine -> List.iter close_conn mine)
          expired
      end
    in
    (* Stops and restarts happen under the mutex, and a slot is dead only
       after its stop ran here: with every owned slot dead, no stop is
       pending and no listener is open. *)
    let should_exit () =
      Hashtbl.length conns = 0
      && Hashtbl.length draining = 0
      && locked (fun () ->
             let dead = List.for_all (fun i -> not alive.(i)) owned in
             if dead then worker_running.(d) <- false;
             dead)
    in
    let rec iter () =
      sync ();
      enforce_deadlines ();
      release_held ();
      if not (should_exit ()) then begin
        let rds = ref (wake_rd :: List.map fst !lsocks) and wrs = ref [] in
        Hashtbl.iter
          (fun fd c ->
            if not c.gpaused then rds := fd :: !rds;
            if Codec.Out.pending c.gout > 0 then wrs := fd :: !wrs)
          conns;
        let timeout = if Hashtbl.length draining > 0 then 0.05 else 0.5 in
        let timeout =
          match !held with
          | (due, _) :: _ -> Float.max 0. (Float.min timeout (due -. now_s ()))
          | [] -> timeout
        in
        (match Unix.select !rds !wrs [] timeout with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
        | rready, wready, _ ->
            if List.mem wake_rd rready then drain_wake wake_rd wake_buf;
            (* Accept before any connection closes, so no fd in [rready]
               is reused by a fresh connection. *)
            List.iter
              (fun (fd, i) -> if List.mem fd rready then accept_all i fd)
              !lsocks;
            List.iter
              (fun fd ->
                match Hashtbl.find_opt conns fd with
                | Some c -> handle_readable c
                | None -> ())
              rready;
            List.iter
              (fun fd ->
                match Hashtbl.find_opt conns fd with
                | Some c -> try_flush c
                | None -> ())
              wready;
            (* Connections whose backpressure lifted during the flushes
               may have whole frames buffered; pump them now — no new
               readable event will come while we are their only
               reader. *)
            let rec pump () =
              match !resumed with
              | [] -> ()
              | cs ->
                  resumed := [];
                  List.iter
                    (fun c ->
                      if Hashtbl.mem conns c.gfd then process_frames c)
                    cs;
                  pump ()
            in
            pump ());
        iter ()
      end
    in
    iter ()
  in
  (* -- control plane ------------------------------------------------------ *)
  let spawn d =
    open_wakes ();
    worker_running.(d) <- true;
    spawned := Domain.spawn (worker d (fst !wakes.(d))) :: !spawned
  in
  let request_stop i ~graceful =
    locked (fun () ->
        if alive.(i) then begin
          (* The listener is still published iff the owner has not yet
             taken a stop request for this slot. *)
          if stop_req.(i) = None && listeners.(i) <> None then begin
            stop_req.(i) <- Some (if graceful then `Graceful else `Crash);
            Atomic.incr gen;
            wake owner.(i)
          end;
          while alive.(i) do
            Condition.wait cond mutex
          done
        end)
  in
  (* Once every slot is dead, join the domains (each exits on its own
     once its slots are dead), then close the wake pipes unless a
     restart has spawned a domain meanwhile. *)
  let reap () =
    let to_join =
      locked (fun () ->
          if Array.exists Fun.id alive then []
          else begin
            let l = !spawned in
            spawned := [];
            l
          end)
    in
    if to_join <> [] then begin
      List.iter Domain.join to_join;
      locked (fun () ->
          if !spawned = [] && not (Array.exists Fun.id alive) then
            close_wakes ())
    end
  in
  let rec handle_of i =
    {
      endpoint = actuals.(i);
      index = indices.(i);
      alive_ = (fun () -> locked (fun () -> alive.(i)));
      stats_ =
        (fun () ->
          {
            connections = Atomic.get conn_counts.(i);
            messages = Atomic.get msg_counts.(i);
            dropped = Atomic.get dropped.(i);
            duplicated = Atomic.get duplicated.(i);
            corrupted = Atomic.get corrupted.(i);
            delayed = Atomic.get delayed.(i);
          });
      set_rules_ =
        (fun ~now_us rules ->
          List.iter
            (fun (r : Chaos.rule) ->
              match (r.dir, r.act) with
              | Chaos.To_server, (Chaos.Delay _ | Chaos.Corrupt) ->
                  invalid_arg
                    "Server.set_rules: requests can only be dropped or \
                     duplicated"
              | _ -> ())
            rules;
          Atomic.set faults.(i)
            (if rules = [] then None else Some { clock = now_us; rules }));
      stop_ =
        (fun ~graceful ->
          request_stop i ~graceful;
          reap ());
      restart_ = (fun ~wipe -> restart_obj i ~wipe);
      violations_ = (fun () -> Atomic.get violations);
    }
  and restart_obj i ~wipe =
    locked (fun () ->
        if alive.(i) then invalid_arg "Server.restart: server still alive";
        if wipe then Hashtbl.reset objs.(i);
        let fd, actual = Endpoint.listen actuals.(i) in
        Unix.set_nonblock fd;
        listeners.(i) <- Some fd;
        actuals.(i) <- actual;
        alive.(i) <- true;
        Atomic.incr gen;
        if worker_running.(owner.(i)) then wake owner.(i) else spawn owner.(i));
    handle_of i
  in
  for d = 0 to nd - 1 do
    spawn d
  done;
  Array.init s handle_of

(* One object on its own: a one-slot group. *)
let start ?metrics ~protocol ~cfg ~index endpoint =
  (start_group
     ?metrics:(Option.map (fun reg _ -> reg) metrics)
     ~indices:[| index |] ~protocol ~cfg [| endpoint |]).(0)

let endpoint t = t.endpoint

let index t = t.index

let alive t = t.alive_ ()

let stats t = t.stats_ ()

let set_rules t ~now_us rules = t.set_rules_ ~now_us rules

let stop t = t.stop_ ~graceful:true

let crash t = t.stop_ ~graceful:false

let restart ?(wipe = false) t = t.restart_ ~wipe

let partition_violations t = t.violations_ ()
