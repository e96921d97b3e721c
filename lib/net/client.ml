type opts = Core.Driver.timing = {
  deadline : float;
  retries : int;
  backoff : float;
}

(* Seconds on the monotonic clock.  Reconnect pacing reads it, so a
   wall-clock step can neither fire nor postpone a reconnect attempt;
   [next_attempt] is only ever compared with values from here.  Round
   deadlines and hedges run on the engine's [now_us], which is monotonic
   too. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let default_opts = { deadline = 1.0; retries = 5; backoff = 0.05 }

(* Where the event loop parks when every endpoint is down: sleep a
   bounded slice of the next-wakeup timeout, so reconnect attempts stay
   paced without spinning and without oversleeping a near deadline. *)
let idle_wait timeout = Thread.delay (Float.max 0.001 (Float.min 0.01 timeout))

type outcome = Core.Driver.outcome = {
  value : Core.Value.t option;
  rounds : int;
  retransmits : int;
  latency_us : int;
}

(* One endpoint = one base object.  [fd = None] marks the endpoint down;
   reconnects are rate-limited by [next_attempt] so a dead server costs
   one connect attempt per backoff window, not one per message. *)
type conn = {
  index : int;  (* 1-based object index *)
  ep : Endpoint.t;
  mutable fd : Unix.file_descr option;
  reader : Codec.Reader.t;  (* reused (reset) across reconnects *)
  out : Codec.Out.t;  (* per-connection encode scratch / outbound batch *)
  mutable frames_out : int;  (* frames appended since the last flush *)
  mutable unanswered : int;  (* frames appended since the last reply *)
  mutable ever : bool;  (* connected at least once: re-dials are reconnects *)
  mutable fails : int;
  mutable next_attempt : float;
  mutable warned_at : float;
  mutable suppressed : int;  (* warnings swallowed since [warned_at] *)
}

let mk_conn i ep =
  {
    index = i + 1;
    ep;
    fd = None;
    reader = Codec.Reader.create ();
    out = Codec.Out.create ();
    frames_out = 0;
    unanswered = 0;
    ever = false;
    fails = 0;
    next_attempt = 0.;
    warned_at = neg_infinity;
    suppressed = 0;
  }

let reconnect_cap = 2.0

(* A flapping endpoint must not flood stderr during a long bench: at
   most one reconnect warning per endpoint per window, with a count of
   what was swallowed in between. *)
let warn_interval = 5.0

let warn_reconnect c ~now msg =
  if now -. c.warned_at >= warn_interval then begin
    Printf.eprintf "robustread-net: object %d (%s): %s%s\n%!" c.index
      (Endpoint.to_string c.ep) msg
      (if c.suppressed > 0 then
         Printf.sprintf " (%d similar warnings suppressed)" c.suppressed
       else "");
    c.warned_at <- now;
    c.suppressed <- 0
  end
  else c.suppressed <- c.suppressed + 1

let penalize c ~now =
  c.fails <- c.fails + 1;
  c.next_attempt <- now +. Float.min reconnect_cap (0.05 *. float_of_int c.fails)

let drop_conn ~reg c =
  match c.fd with
  | None -> ()
  | Some fd ->
      Endpoint.close_quietly fd;
      c.fd <- None;
      Codec.Reader.reset c.reader;
      Codec.Out.clear c.out;
      c.frames_out <- 0;
      c.unanswered <- 0;
      penalize c ~now:(now_s ());
      Obs.Metrics.incr reg "net.client.disconnects"

(* Connect and send the session [Hello]; failures are penalized and
   (rate-limitedly) reported.  [on_reconnect] fires when the endpoint
   had been connected before — the server behind it may have restarted
   (possibly wiped), so protocols with client-side cached state must
   resync (see {!Core.Protocol_intf.S.reader_on_reconnect}). *)
let try_connect ~reg ~on_reconnect ~codec ~proto_name ~proc c =
  match Endpoint.dial c.ep with
  | fd -> (
      Codec.Reader.reset c.reader;
      c.fails <- 0;
      c.fd <- Some fd;
      let reconnected = c.ever in
      c.ever <- true;
      Obs.Metrics.incr reg "net.client.connects";
      if reconnected then on_reconnect ();
      try
        Codec.encode_frame_into codec c.out
          (Codec.Hello { proto = proto_name; sender = proc; obj = c.index });
        Codec.flush fd c.out;
        c.frames_out <- 0
      with Unix.Unix_error _ -> drop_conn ~reg c)
  | exception Unix.Unix_error (err, _, _) ->
      let now = now_s () in
      penalize c ~now;
      (* Chaos runs assert on reconnect behaviour: every failed attempt
         counts in the registry even when the stderr warning above is
         rate-limited away. *)
      Obs.Metrics.incr reg "op.reconnects";
      warn_reconnect c ~now
        (Printf.sprintf "reconnect failed: %s" (Unix.error_message err))

(* ===== the client engine ================================================= *)

(* The socket side of the one client engine: one connection per fleet
   server, [Hello] and cache resync on (re)connect, decode with the
   sender -> lane lookup, per-connection batched flushes, and one
   [select] loop, [poll], which can turn for several engines at once.
   The round logic is {!Core.Driver}'s; this loop feeds it replies, lost
   connections and the time.  Fleet slot [i] is connection [i], whose
   object index is [i + 1]. *)

module Keyed = struct
  include Core.Driver_ops

  type ('m, 'r, 'w) engine = {
    drv : ('m, 'r, 'w) Core.Driver.t;
    codec : 'm Codec.t;
    proto_name : string;
    conns : conn array;
    reg : Obs.Metrics.t;
    batch_size : Obs.Metrics.histogram;
    flush_us : Obs.Metrics.histogram;
    now_us : unit -> int;
    session : string;
    reader : int;
    readers : int;
    mutable on_event : event -> unit;  (* the handler of the current [poll] *)
  }

  type t = Engine : ('m, 'r, 'w) engine -> t

  (* A reply to a sender that is none of this engine's roles ([stranger])
     belongs to another client. *)
  let stranger = -2

  let lane_of_sender e sender =
    match Sim.Proc_id.of_string sender with
    | Some Sim.Proc_id.Writer -> Core.Driver.writer
    | Some (Sim.Proc_id.Reader j) when j >= e.reader && j < e.reader + e.readers
      ->
        j - e.reader
    | Some (Sim.Proc_id.Reader _ | Sim.Proc_id.Obj _) | None -> stranger

  let connect ?session ?(metrics = Obs.Metrics.off) ?(opts = default_opts)
      ?now_us ?(max_inflight = 16) ?(reader = 1) ?(readers = 1) ?(coalesce = 1)
      ~protocol ~map endpoints =
    Endpoint.ignore_sigpipe ();
    let (Protocols.Packed { proto; codec }) = protocol in
    let (module P) = proto in
    let fleet = Shard.Map.fleet map in
    if Array.length endpoints <> fleet then
      invalid_arg
        (Printf.sprintf "Keyed.connect: %d endpoints for a fleet of %d"
           (Array.length endpoints) fleet);
    if reader < 1 then
      invalid_arg (Printf.sprintf "Keyed.connect: reader = %d" reader);
    if readers < 1 then
      invalid_arg (Printf.sprintf "Keyed.connect: readers = %d" readers);
    let now_us =
      match now_us with
      | Some f -> f
      | None ->
          let t0 = now_s () in
          fun () -> int_of_float ((now_s () -. t0) *. 1e6)
    in
    let conns = Array.mapi mk_conn endpoints in
    let h name bounds = Obs.Metrics.histogram metrics name ~bounds in
    let wire = Obs.Metrics.wire metrics P.msg_class in
    let bytes_per_frame =
      h "net.client.bytes_per_frame" Obs.Metrics.bytes_bounds
    in
    let append_key c ~key ~sender m =
      if c.fd <> None then begin
        let before = Codec.Out.length c.out in
        Codec.encode_frame_into codec c.out
          (Codec.Msg_key { key; sender; msg = m });
        Obs.Metrics.wire_incr wire Sent m;
        (* the length delta is the frame's whole wire size *)
        Obs.Metrics.histogram_observe_int bytes_per_frame
          (Codec.Out.length c.out - before);
        c.frames_out <- c.frames_out + 1;
        c.unanswered <- c.unanswered + 1
      end
    in
    (* Spans are numbered in start order per engine and leave it with
       their op's [Respond]: the engine keeps none once an op has
       responded. *)
    let span_ids = ref 0 in
    let host =
      {
        Core.Driver.send =
          (fun ~slot ~key ~sender m -> append_key conns.(slot) ~key ~sender m);
        connected = (fun slot -> conns.(slot).fd <> None);
        unanswered = (fun slot -> conns.(slot).unanswered);
        answers = Codec.answers codec;
        start_span =
          (fun kind ~proc ~now ->
            let id = !span_ids in
            incr span_ids;
            Obs.Span.create ~id kind ~proc ~now ~trace_pos:0);
        trace_pos = (fun () -> 0);
      }
    in
    let drv =
      Core.Driver.create ~metrics ~timing:opts ~window:max_inflight ~coalesce
        (module P : Core.Protocol_intf.S
          with type msg = P.msg
           and type reader = P.reader
           and type writer = P.writer)
        ~host ~map
        ~fanout:(Quorum.Config.quorum (Shard.Map.cfg map))
        ~reader ~readers
    in
    let e =
      {
        drv;
        codec;
        proto_name = P.name;
        conns;
        reg = metrics;
        batch_size = h "net.client.batch_size" Obs.Metrics.batch_bounds;
        flush_us = h "net.client.flush_us" Obs.Metrics.wallclock_bounds;
        now_us;
        session = Option.value session ~default:("r" ^ string_of_int reader);
        reader;
        readers;
        on_event = ignore;
      }
    in
    Core.Driver.load drv ~on_event:(fun ev -> e.on_event ev) [||];
    Engine e

  let drop e c =
    if c.fd <> None then begin
      drop_conn ~reg:e.reg c;
      Core.Driver.lost e.drv ~slot:(c.index - 1)
    end

  (* Flush a connection's outbound batch: one [write] for however many
     frames accumulated since the last flush, recording the batch size
     and flush latency. *)
  let flush_conn e c =
    if Codec.Out.pending c.out > 0 then begin
      let frames = c.frames_out in
      c.frames_out <- 0;
      match c.fd with
      | None -> Codec.Out.clear c.out
      | Some fd -> (
          let timed = Obs.Metrics.enabled e.reg in
          let t0 = if timed then now_s () else 0. in
          try
            Codec.flush fd c.out;
            Obs.Metrics.histogram_observe_int e.batch_size frames;
            if timed then
              Obs.Metrics.histogram_observe_int e.flush_us
                (int_of_float ((now_s () -. t0) *. 1e6))
          with Unix.Unix_error _ -> drop_conn ~reg:e.reg c)
    end

  (* A failed flush drops its connection too; the widening that follows
     appends to other connections, so flush again. *)
  let rec flush_all e =
    let lost = ref false in
    Array.iter
      (fun c ->
        let up = c.fd <> None in
        flush_conn e c;
        if up && c.fd = None then begin
          lost := true;
          Core.Driver.lost e.drv ~slot:(c.index - 1)
        end)
      e.conns;
    if !lost then flush_all e

  let ensure_conns e now =
    Array.iter
      (fun c ->
        if c.fd = None && now >= c.next_attempt then
          try_connect ~reg:e.reg ~codec:e.codec ~proto_name:e.proto_name
            ~proc:e.session
            ~on_reconnect:(fun () -> Core.Driver.reconnected e.drv)
            c)
      e.conns

  let on_frame e c = function
    | Codec.Hello_ack { proto; obj } ->
        if proto <> e.proto_name || obj <> c.index then drop e c
    | Codec.Err _ ->
        Obs.Metrics.incr e.reg "net.client.peer_errors";
        drop e c
    | Codec.Hello _ -> drop e c
    | Codec.Msg_key { key; sender; msg } ->
        c.unanswered <- 0;
        let lane = lane_of_sender e sender in
        if lane <> stranger then
          Core.Driver.deliver e.drv ~now:(e.now_us ()) ~slot:(c.index - 1) ~key
            ~lane msg

  let handle_conn e c =
    match c.fd with
    | None -> ()
    | Some fd -> (
        match Codec.recv_into fd c.reader with
        | 0 -> drop e c
        | exception Unix.Unix_error _ -> drop e c
        | _ ->
            let rec drain () =
              if c.fd <> None then
                match Codec.Reader.next e.codec c.reader with
                | Ok `Awaiting -> ()
                | Error _ ->
                    Obs.Metrics.incr e.reg "net.client.decode_errors";
                    drop e c
                | Ok (`Frame f) ->
                    on_frame e c f;
                    drain ()
            in
            drain ())

  (* How long [select] may wait: until the driver's next timer, and,
     while a round is in flight, until the next reconnect attempt; at
     most a second. *)
  let max_wait e =
    let now = e.now_us () and wake = Core.Driver.next_wakeup e.drv in
    let t = Float.min 1.0 (float_of_int (wake - now) *. 1e-6) in
    let t =
      if wake < max_int then
        let now = now_s () in
        Array.fold_left
          (fun t c ->
            if c.fd = None then Float.min t (c.next_attempt -. now) else t)
          t e.conns
      else t
    in
    Float.max 0. t

  let submit (Engine e) op =
    Core.Driver.submit e.drv op;
    Core.Driver.submitted e.drv - 1

  let idle (Engine e) = Core.Driver.finished e.drv

  let op (Engine e) i = Core.Driver.op e.drv i

  (* Unless no engine has an op outstanding, one [select] waits for the
     replies of them all. *)
  let poll engines ~timeout =
    List.iter
      (fun (Engine e, on_event) ->
        e.on_event <- on_event;
        (* connect before starting ops: a round only reaches endpoints
           that already have a live fd *)
        ensure_conns e (now_s ());
        Core.Driver.pump e.drv ~now:(e.now_us ());
        flush_all e;
        Core.Driver.flushed e.drv)
      engines;
    if not (List.for_all (fun (t, _) -> idle t) engines) then begin
      let conns =
        List.fold_right
          (fun (Engine e, _) acc ->
            Array.fold_right
              (fun c acc ->
                match c.fd with
                | Some fd -> (fd, fun () -> handle_conn e c) :: acc
                | None -> acc)
              e.conns acc)
          engines []
      in
      let timeout =
        List.fold_left
          (fun t (Engine e, _) -> Float.min t (max_wait e))
          timeout engines
      in
      (match conns with
      | [] -> idle_wait timeout
      | _ -> (
          match Unix.select (List.map fst conns) [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ -> List.iter (fun fd -> (List.assoc fd conns) ()) ready));
      List.iter
        (fun (Engine e, _) -> Core.Driver.tick e.drv ~now:(e.now_us ()))
        engines
    end

  let run_ops ?(on_event = ignore) (Engine e as t) ops =
    let results = Array.make (Array.length ops) (Error "operation not run") in
    let on_event ev =
      (match ev with
      | Respond { op; outcome; _ } -> results.(op) <- outcome
      | Invoke _ -> ());
      on_event ev
    in
    Core.Driver.load e.drv ~on_event:(fun ev -> e.on_event ev) ops;
    let engines = [ (t, on_event) ] in
    while not (idle t) do
      poll engines ~timeout:1.0
    done;
    results

  let close (Engine e) = Array.iter (drop_conn ~reg:e.reg) e.conns
end
