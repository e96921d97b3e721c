type opts = { deadline : float; retries : int; backoff : float }

(* Seconds on the monotonic clock.  Every deadline, backoff, hedge and
   reconnect time in this file is read from it, so a wall-clock step
   can neither fire nor postpone a retransmit; [next_attempt] and the
   round deadlines are only ever compared with values from here. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let default_opts = { deadline = 1.0; retries = 5; backoff = 0.05 }

(* Retransmit backoff: exponential in the attempt but clamped — at the
   default 50ms base, attempt 20 would otherwise land ~14.6 hours out,
   so one long outage could wedge an operation far past its deadline
   budget.  (Reconnect pacing has its own, shorter [reconnect_cap].) *)
let backoff_cap = 1.0

let retry_backoff opts ~attempt =
  Float.min backoff_cap (opts.backoff *. (2. ** float_of_int attempt))

(* Where the three event loops park when every endpoint is down: sleep a
   bounded slice of the next-wakeup timeout, so reconnect attempts stay
   paced without spinning and without oversleeping a near deadline. *)
let idle_wait timeout = Thread.delay (Float.max 0.001 (Float.min 0.01 timeout))

type outcome = {
  value : Core.Value.t option;
  rounds : int;
  retransmits : int;
  latency_us : int;
}

type t = {
  write_ : Core.Value.t -> (outcome, string) result;
  read_ : unit -> (outcome, string) result;
  close_ : unit -> unit;
  connected_ : unit -> int list;
  collector : Obs.Span.collector;
}

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

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
  mutable unanswered : int;
      (* keyed: frames appended since this member last replied *)
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

let connect_timeout = 0.5

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

(* Batched flushes must hit the wire immediately: Nagle + delayed-ACK
   would otherwise stall the round-trip pipeline on TCP loopback. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let connect_fd ep =
  let fd = Unix.socket (Endpoint.socket_domain ep) Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (match ep with
    | Endpoint.Tcp _ -> set_nodelay fd
    | Endpoint.Unix_sock _ -> ());
    (try Unix.connect fd (Endpoint.to_sockaddr ep)
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
       match Unix.select [] [ fd ] [] connect_timeout with
       | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
       | _ -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
    Unix.clear_nonblock fd;
    fd
  with e ->
    close_quietly fd;
    raise e

let penalize c ~now =
  c.fails <- c.fails + 1;
  c.next_attempt <- now +. Float.min reconnect_cap (0.05 *. float_of_int c.fails)

let drop_conn ?count c =
  match c.fd with
  | None -> ()
  | Some fd ->
      close_quietly fd;
      c.fd <- None;
      Codec.Reader.reset c.reader;
      Codec.Out.clear c.out;
      c.frames_out <- 0;
      c.unanswered <- 0;
      penalize c ~now:(now_s ());
      (match count with None -> () | Some f -> f "net.client.disconnects")

(* Connect and send the session [Hello]; failures are penalized and
   (rate-limitedly) reported.  [on_reconnect] fires when the endpoint
   had been connected before — the server behind it may have restarted
   (possibly wiped), so protocols with client-side cached state must
   resync (see {!Core.Protocol_intf.S.reader_on_reconnect}). *)
let try_connect ?count ?on_reconnect ~codec ~proto_name ~proc c =
  match connect_fd c.ep with
  | fd -> (
      Codec.Reader.reset c.reader;
      c.fails <- 0;
      c.fd <- Some fd;
      let reconnected = c.ever in
      c.ever <- true;
      (match count with None -> () | Some f -> f "net.client.connects");
      (if reconnected then
         match on_reconnect with None -> () | Some f -> f ());
      try
        Codec.encode_frame_into codec c.out
          (Codec.Hello { proto = proto_name; sender = proc; obj = c.index });
        Codec.flush fd c.out;
        c.frames_out <- 0
      with Unix.Unix_error _ -> drop_conn ?count c)
  | exception Unix.Unix_error (err, _, _) ->
      let now = now_s () in
      penalize c ~now;
      (* Chaos runs assert on reconnect behaviour: every failed attempt
         counts in the registry even when the stderr warning above is
         rate-limited away. *)
      (match count with None -> () | Some f -> f "op.reconnects");
      warn_reconnect c ~now
        (Printf.sprintf "reconnect failed: %s" (Unix.error_message err))

(* Per-frame wire cost, observed at append time on the encode scratch:
   the length delta IS the frame's full wire size (length prefix
   included), so key tagging's extra varint shows up here as +1–2
   bytes. *)
let observe_frame_bytes metrics n =
  match metrics with
  | None -> ()
  | Some reg ->
      Obs.Metrics.observe_int reg "wire.bytes_per_frame"
        ~bounds:Obs.Metrics.bytes_bounds n

(* Flush a connection's outbound batch: one [write] for however many
   frames accumulated since the last flush, recording the batch size
   and flush latency. *)
let flush_conn ?metrics ?count c =
  if Codec.Out.pending c.out > 0 then begin
    match c.fd with
    | None ->
        Codec.Out.clear c.out;
        c.frames_out <- 0
    | Some fd -> (
        let frames = c.frames_out in
        c.frames_out <- 0;
        match metrics with
        | None -> (
            try Codec.flush fd c.out
            with Unix.Unix_error _ -> drop_conn ?count c)
        | Some reg -> (
            let t0 = now_s () in
            try
              Codec.flush fd c.out;
              Obs.Metrics.observe_int reg "wire.batch_size"
                ~bounds:Obs.Metrics.batch_bounds frames;
              Obs.Metrics.observe_int reg "wire.flush_us"
                ~bounds:Obs.Metrics.wallclock_bounds
                (int_of_float ((now_s () -. t0) *. 1e6))
            with Unix.Unix_error _ -> drop_conn ?count c))
  end

let connect ?metrics ?(opts = default_opts) ?now_us ~protocol ~cfg ~role
    endpoints =
  Lazy.force ignore_sigpipe;
  let (Protocols.Packed { proto = (module P); codec }) = protocol in
  let s = cfg.Quorum.Config.s in
  if Array.length endpoints <> s then
    invalid_arg
      (Printf.sprintf "Client.connect: %d endpoints for S = %d"
         (Array.length endpoints) s);
  let proc =
    match role with
    | `Writer -> "w"
    | `Reader j when j >= 1 -> "r" ^ string_of_int j
    | `Reader j -> invalid_arg (Printf.sprintf "Client.connect: reader %d" j)
  in
  let now_f = now_s in
  let now_us =
    match now_us with
    | Some f -> f
    | None ->
        let t0 = now_f () in
        fun () -> int_of_float ((now_f () -. t0) *. 1e6)
  in
  let collector = Obs.Span.collector () in
  let count name =
    match metrics with None -> () | Some reg -> Obs.Metrics.incr reg name
  in
  let meter stage m =
    match metrics with
    | None -> ()
    | Some reg ->
        Obs.Metrics.incr reg
          ("wire." ^ Obs.Wire.to_string (P.msg_class m) ^ "." ^ stage)
  in
  let conns = Array.mapi mk_conn endpoints in
  let drop c = drop_conn ~count c in
  let send_conn c m =
    match c.fd with
    | None -> ()
    | Some _ ->
        meter "sent" m;
        let before = Codec.Out.length c.out in
        Codec.encode_frame_into codec c.out (Codec.Msg m);
        observe_frame_bytes metrics (Codec.Out.length c.out - before);
        c.frames_out <- c.frames_out + 1;
        flush_conn ?metrics ~count c
  in
  (* Set by the reader role below once its machine ref exists; writers
     keep the no-op (the writer automaton caches nothing). *)
  let resync = ref (fun () -> ()) in
  let try_connect c =
    try_connect ~count ~codec ~proto_name:P.name ~proc
      ~on_reconnect:(fun () -> !resync ())
      c
  in
  let ensure_conns () =
    Array.iter
      (fun c -> if c.fd = None && now_f () >= c.next_attempt then try_connect c)
      conns
  in
  let broadcast m = Array.iter (fun c -> send_conn c m) conns in
  let connected () =
    Array.to_list conns
    |> List.filter_map (fun c ->
           match c.fd with Some _ -> Some c.index | None -> None)
  in
  (* The generic operation loop.  [pending] survives a timed-out
     operation: the protocol state machine is still mid-round (there is
     no abort in the paper's automata), so the next invocation resumes
     it instead of corrupting the state with a fresh start. *)
  let run_op ~kind ~pending ~start ~feed =
    ensure_conns ();
    let resume = !pending in
    let init =
      match resume with
      | Some (m, span) -> Ok (m, span)
      | None -> (
          match start () with
          | Error e -> Error e
          | Ok m ->
              let span =
                Obs.Span.start collector kind ~proc ~now:(now_us ())
                  ~trace_pos:0
              in
              Ok (m, span))
    in
    match init with
    | Error e -> Error e
    | Ok (m0, span) ->
        pending := Some (m0, span);
        let current = ref m0 in
        let retransmits = ref 0 in
        let finished = ref None in
        let deadline = ref (now_f () +. opts.deadline) in
        let on_frame c = function
          | Codec.Hello_ack { proto; obj } ->
              if proto <> P.name || obj <> c.index then drop c
          | Codec.Err _ ->
              count "net.client.peer_errors";
              drop c
          | Codec.Hello _ -> drop c
          | Codec.Msg_from { sender; msg = _ } when sender <> proc ->
              () (* demuxed reply for someone else: stale, ignore *)
          | Codec.Msg_key _ ->
              () (* keyed reply: the serial client never tags keys *)
          | Codec.Msg m | Codec.Msg_from { msg = m; _ } ->
              meter "delivered" m;
              Obs.Span.contact span ~obj:c.index;
              List.iter
                (function
                  | Core.Events.Broadcast m' ->
                      Obs.Span.transition span ~now:(now_us ());
                      current := m';
                      pending := Some (m', span);
                      deadline := now_f () +. opts.deadline;
                      broadcast m'
                  | Core.Events.Read_done { value; rounds } ->
                      finished := Some (Some value, rounds)
                  | Core.Events.Write_done { rounds } ->
                      finished := Some (None, rounds))
                (feed ~obj:c.index m)
        in
        let handle_readable fd =
          Array.iter
            (fun c ->
              if c.fd = Some fd then
                match Codec.recv_into fd c.reader with
                | 0 -> drop c
                | exception Unix.Unix_error _ -> drop c
                | _ ->
                    let rec drain () =
                      if c.fd <> None then
                        match Codec.Reader.next codec c.reader with
                        | Ok `Awaiting -> ()
                        | Error _ ->
                            count "net.client.decode_errors";
                            drop c
                        | Ok (`Frame f) ->
                            on_frame c f;
                            drain ()
                    in
                    drain ())
            conns
        in
        broadcast !current;
        let rec loop attempt =
          match !finished with
          | Some (value, rounds) ->
              let now = now_us () in
              Obs.Span.finish span ~now ~rounds
                ?result:(Option.map Core.Value.to_string value)
                ~trace_pos:0 ();
              pending := None;
              let k = "op." ^ Obs.Span.kind_to_string kind in
              (match metrics with
              | None -> ()
              | Some reg ->
                  Obs.Metrics.incr reg (k ^ ".completed");
                  Obs.Metrics.observe_int reg (k ^ ".rounds")
                    ~bounds:Obs.Metrics.round_bounds span.Obs.Span.rounds;
                  Obs.Metrics.observe_int reg (k ^ ".latency_us")
                    ~bounds:Obs.Metrics.wallclock_bounds
                    (now - span.Obs.Span.started_at);
                  Obs.Metrics.observe_int reg (k ^ ".replies")
                    ~bounds:Obs.Metrics.count_bounds span.Obs.Span.replies;
                  Obs.Metrics.observe_int reg (k ^ ".contacted")
                    ~bounds:Obs.Metrics.count_bounds
                    (List.length (Obs.Span.contacted span));
                  (* Distinguish the one-round fast path from the
                     two-round fallback in traces.  [rounds] is what the
                     automaton REPORTED at decision time — span.rounds
                     counts initiated rounds, which can exceed it for
                     protocols that broadcast Read2 next to a round-1
                     decision (Fig. 6's plain regular reader). *)
                  match kind with
                  | Obs.Span.Read _ ->
                      Obs.Metrics.incr reg
                        (if rounds <= 1 then "op.fast_reads"
                         else "op.fallback_rounds")
                  | Obs.Span.Write -> ());
              Ok
                {
                  value;
                  rounds;
                  retransmits = !retransmits;
                  latency_us = now - span.Obs.Span.started_at;
                }
          | None ->
              let timeout = !deadline -. now_f () in
              if timeout <= 0. then
                if attempt >= opts.retries then begin
                  count ("op." ^ Obs.Span.kind_to_string kind ^ ".timeout");
                  Error
                    (Printf.sprintf
                       "%s by %s timed out after %d attempts (%.1fs deadline, \
                        connected objects: %s)"
                       (Obs.Span.kind_to_string kind)
                       proc (attempt + 1) opts.deadline
                       (match connected () with
                       | [] -> "none"
                       | l -> String.concat "," (List.map string_of_int l)))
                end
                else begin
                  incr retransmits;
                  count "net.client.retransmits";
                  Thread.delay (retry_backoff opts ~attempt);
                  ensure_conns ();
                  broadcast !current;
                  deadline := now_f () +. opts.deadline;
                  loop (attempt + 1)
                end
              else
                let fds =
                  Array.to_list conns |> List.filter_map (fun c -> c.fd)
                in
                if fds = [] then begin
                  (* Every endpoint is down: pace reconnect attempts
                     until the deadline machinery decides. *)
                  idle_wait timeout;
                  ensure_conns ();
                  loop attempt
                end
                else (
                  match Unix.select fds [] [] timeout with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                      loop attempt
                  | ready, _, _ ->
                      List.iter handle_readable ready;
                      loop attempt)
        in
        loop 0
  in
  let write_, read_ =
    match role with
    | `Writer ->
        let writer = ref (P.writer_init ~cfg) in
        let pending = ref None in
        let write v =
          run_op ~kind:Obs.Span.Write ~pending
            ~start:(fun () ->
              match P.writer_start !writer v with
              | Ok (w, m) ->
                  writer := w;
                  Ok m
              | Error e -> Error e)
            ~feed:(fun ~obj m ->
              let w, evs = P.writer_on_msg !writer ~obj m in
              writer := w;
              evs)
        in
        (write, fun () -> invalid_arg "Client.read: this client is the writer")
    | `Reader j ->
        let rd = ref (P.reader_init ~cfg ~j) in
        resync :=
          (fun () ->
            count "op.cache_resyncs";
            rd := P.reader_on_reconnect !rd);
        let pending = ref None in
        let read () =
          run_op
            ~kind:(Obs.Span.Read { reader = j })
            ~pending
            ~start:(fun () ->
              match P.reader_start !rd with
              | Ok (r, m) ->
                  rd := r;
                  Ok m
              | Error e -> Error e)
            ~feed:(fun ~obj m ->
              let r, evs = P.reader_on_msg !rd ~obj m in
              rd := r;
              evs)
        in
        ((fun _ -> invalid_arg "Client.write: this client is a reader"), read)
  in
  let close_conn c =
    drop c;
    Codec.Reader.recycle c.reader;
    Codec.Out.recycle c.out
  in
  {
    write_;
    read_;
    close_ = (fun () -> Array.iter close_conn conns);
    connected_ = connected;
    collector;
  }

let write t v = t.write_ v

let read t = t.read_ ()

let spans t = Obs.Span.spans t.collector

let connected t = t.connected_ ()

let close t = t.close_ ()

(* ===== pipelined multiplexing client ===================================== *)

(* One reader automaton can only run one operation at a time (its round
   timestamps are per-op), so the operation window is built from
   [readers] independent reader machines — each with its own round
   state, deadline and backoff — multiplexed onto a single event loop.
   All machines share ONE connection per base object: their messages
   travel as [Msg_from] frames carrying the reader id inline, and
   replies demux by the echoed sender.  That sharing is what makes
   frame batching real — one flush carries every in-flight op's round
   messages to an object in a single [write].  Per-op quorum logic is
   exactly the serial client's: the state machines still decide when
   S−t replies are enough. *)

(* Who a keyed round's current message went to, by shard rank (DESIGN
   §17).  [sent] members were sent the message and may still answer it;
   [answered] ones did, with a reply of the message's round. *)
type fanout = {
  mutable sent : bool array;
  answered : bool array;
  mutable nsent : int;
  mutable nans : int;
  mutable started : float;  (* when the current message first went out *)
  mutable hedge_at : float;  (* 0. = not armed *)
}

(* Mux rounds always go to every object: their fanout is never read. *)
let no_fanout =
  {
    sent = [||];
    answered = [||];
    nsent = 0;
    nans = 0;
    started = 0.;
    hedge_at = 0.;
  }

type 'm active = {
  aop : int;  (* index into the run's result array *)
  mutable acur : 'm;  (* current round's broadcast *)
  afan : fanout;
  aspan : Obs.Span.t;
  mutable adeadline : float;
  mutable abackoff_until : float;  (* 0. = not backing off *)
  mutable aattempt : int;
  mutable aretr : int;
  abatch : (int * Obs.Span.t) Coalesce.t option;
      (* READ coalescing: (op index, span) per read that joined this
         round while its round-1 broadcast was still being assembled.
         [None] for writes, for resumed parked rounds (their evidence
         gathering already started — a join would not be regular), and
         when coalescing is off.  Closed the instant the broadcast is
         flushed to the wire. *)
}

(* A timed-out op parks its machine mid-round (no abort in the paper's
   automata); the next op assigned to the slot resumes it.  If replies
   trickle in while parked and complete the op, the result is stashed
   ([Sdone]) and adopted by the next assignment — the serial client's
   resume semantics, event-loop style. *)
type 'm slot_state =
  | Sidle
  | Sactive of 'm active
  | Sparked of { mutable pcur : 'm; pspan : Obs.Span.t }
  | Sdone of outcome

type ('m, 'r) slot = {
  j : int;  (* reader id, 1-based *)
  sname : string;  (* "r<j>": the [Msg_from] sender tag *)
  mutable machine : 'r;
  mutable st : 'm slot_state;
}

module Mux = struct
  (* [joined] marks a coalesced read: it never ran its own quorum round
     but adopted the result of the round [reader]'s slot was assembling
     when it was invoked. *)
  type event =
    | Invoke of { op : int; reader : int; joined : bool; at_us : int }
    | Respond of {
        op : int;
        reader : int;
        joined : bool;
        at_us : int;
        outcome : (outcome, string) result;
      }

  type t = {
    mux_run :
      ?on_event:(event -> unit) -> int -> (outcome, string) result array;
    mux_spans : unit -> Obs.Span.t list;
    mux_connected : unit -> int list;
    mux_close : unit -> unit;
  }

  let connect ?metrics ?(opts = default_opts) ?now_us ?max_inflight
      ?(first_reader = 1) ?(coalesce = 1) ~protocol ~cfg ~readers endpoints =
    Lazy.force ignore_sigpipe;
    let (Protocols.Packed { proto = (module P); codec }) = protocol in
    let cap = max 1 coalesce in
    let s = cfg.Quorum.Config.s in
    if Array.length endpoints <> s then
      invalid_arg
        (Printf.sprintf "Mux.connect: %d endpoints for S = %d"
           (Array.length endpoints) s);
    if readers < 1 then
      invalid_arg (Printf.sprintf "Mux.connect: readers = %d" readers);
    if first_reader < 1 then
      invalid_arg (Printf.sprintf "Mux.connect: first_reader = %d" first_reader);
    let window =
      match max_inflight with
      | None -> readers
      | Some w -> max 1 (min w readers)
    in
    let now_f = now_s in
    let now_us =
      match now_us with
      | Some f -> f
      | None ->
          let t0 = now_f () in
          fun () -> int_of_float ((now_f () -. t0) *. 1e6)
    in
    let collector = Obs.Span.collector () in
    let count name =
      match metrics with None -> () | Some reg -> Obs.Metrics.incr reg name
    in
    let meter stage m =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.incr reg
            ("wire." ^ Obs.Wire.to_string (P.msg_class m) ^ "." ^ stage)
    in
    let slots =
      Array.init readers (fun idx ->
          let j = first_reader + idx in
          {
            j;
            sname = "r" ^ string_of_int j;
            machine = P.reader_init ~cfg ~j;
            st = Sidle;
          })
    in
    (* One connection per base object, shared by every reader machine:
       the session Hello names the first reader, each protocol message
       names its own sender. *)
    let conns = Array.mapi mk_conn endpoints in
    let session_proc = "r" ^ string_of_int first_reader in
    let drop c = drop_conn ~count c in
    let append_msg c ~sender m =
      match c.fd with
      | None -> ()
      | Some _ ->
          meter "sent" m;
          let before = Codec.Out.length c.out in
          Codec.encode_frame_into codec c.out (Codec.Msg_from { sender; msg = m });
          observe_frame_bytes metrics (Codec.Out.length c.out - before);
          c.frames_out <- c.frames_out + 1
    in
    let broadcast_slot sl m =
      Array.iter (fun c -> append_msg c ~sender:sl.sname m) conns
    in
    let flush_all () =
      Array.iter (fun c -> flush_conn ?metrics ~count c) conns
    in
    (* Any re-established connection resyncs EVERY reader machine: the
       server behind it may have restarted wiped, so no machine's cached
       timestamp may be trusted for suffix requests any more.  Idle
       machines clear immediately; in-flight ones defer to their next
       start (see Regular_reader.on_reconnect). *)
    let resync_slots () =
      count "op.cache_resyncs";
      Array.iter
        (fun sl -> sl.machine <- P.reader_on_reconnect sl.machine)
        slots
    in
    let ensure_conns now =
      Array.iter
        (fun c ->
          if c.fd = None && now >= c.next_attempt then
            try_connect ~count ~codec ~proto_name:P.name ~proc:session_proc
              ~on_reconnect:resync_slots c)
        conns
    in
    let connected () =
      Array.to_list conns
      |> List.filter_map (fun c ->
             match c.fd with Some _ -> Some c.index | None -> None)
    in
    (* In-place parse of the echoed sender ("r<j>"): one call per reply
       frame, so no [String.sub] allocation.  Returns the slot index or
       -1 for a sender outside this mux's reader range. *)
    let slot_of_sender sender =
      let len = String.length sender in
      if len >= 2 && sender.[0] = 'r' then begin
        let rec go i acc =
          if i >= len then acc
          else
            match sender.[i] with
            | '0' .. '9' when acc < 0x3FFFFFF ->
                go (i + 1) ((acc * 10) + (Char.code sender.[i] - Char.code '0'))
            | _ -> -1
        in
        let j = go 1 0 in
        if j >= first_reader && j < first_reader + readers then
          j - first_reader
        else -1
      end
      else -1
    in
    (* [rounds] is the automaton-reported count (outcome.rounds), not
       span.rounds: a protocol that broadcasts Read2 next to a round-1
       decision records 2 initiated rounds for a 1-round read. *)
    let op_metrics span ~rounds now =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.incr reg "op.read.completed";
          Obs.Metrics.observe_int reg "op.read.rounds"
            ~bounds:Obs.Metrics.round_bounds span.Obs.Span.rounds;
          Obs.Metrics.observe_int reg "op.read.latency_us"
            ~bounds:Obs.Metrics.wallclock_bounds
            (now - span.Obs.Span.started_at);
          Obs.Metrics.observe_int reg "op.read.replies"
            ~bounds:Obs.Metrics.count_bounds span.Obs.Span.replies;
          Obs.Metrics.observe_int reg "op.read.contacted"
            ~bounds:Obs.Metrics.count_bounds
            (List.length (Obs.Span.contacted span));
          Obs.Metrics.incr reg
            (if rounds <= 1 then "op.fast_reads" else "op.fallback_rounds")
    in
    (* Batch width is observed once per member (so the histogram weights
       by op, not by round): a width-4 batch contributes four 4s.  Only
       recorded when coalescing is on — an off run has no batches, and
       the metric's absence keeps the two configurations comparable. *)
    let observe_width w =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.observe_int reg "op.coalesce_width"
            ~bounds:Obs.Metrics.batch_bounds w
    in
    let run ?on_event n =
      if n < 0 then invalid_arg "Mux.run_reads: negative op count";
      let results = Array.make (max n 1) (Error "operation not run") in
      let emit e = match on_event with Some f -> f e | None -> () in
      let next_op = ref 0 in
      let completed = ref 0 in
      let in_flight = ref 0 in
      let finish_active sl (a : _ active) outcome =
        results.(a.aop) <- outcome;
        emit
          (Respond
             {
               op = a.aop;
               reader = sl.j;
               joined = false;
               at_us = now_us ();
               outcome;
             });
        incr completed;
        decr in_flight
      in
      (* Fan a completed lead's value out to every read that joined its
         round.  Each joiner is a logical op of its own: its span,
         latency and per-op metrics are bumped individually (joiners
         report the lead's decision round count; they ran no network
         round of their own, so [in_flight] is untouched). *)
      let fanout_ok sl (a : _ active) ~rounds ~value =
        match a.abatch with
        | None -> ()
        | Some b ->
            let w = Coalesce.width b in
            observe_width w;
            Coalesce.iter_joiners
              (fun (op, span) ->
                let now = now_us () in
                Obs.Span.finish span ~now ~rounds
                  ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                op_metrics span ~rounds now;
                observe_width w;
                let out =
                  {
                    value = Some value;
                    rounds;
                    retransmits = 0;
                    latency_us = now - span.Obs.Span.started_at;
                  }
                in
                results.(op) <- Ok out;
                emit
                  (Respond
                     {
                       op;
                       reader = sl.j;
                       joined = true;
                       at_us = now;
                       outcome = Ok out;
                     });
                incr completed)
              b
      in
      (* A lead that times out takes its whole batch with it: the
         joiners' evidence was the lead's round, so they fail now rather
         than dangle.  (Their spans stay open, like any failed op's.) *)
      let fanout_err sl (a : _ active) err =
        match a.abatch with
        | None -> ()
        | Some b ->
            Coalesce.iter_joiners
              (fun (op, _span) ->
                results.(op) <- Error err;
                emit
                  (Respond
                     {
                       op;
                       reader = sl.j;
                       joined = true;
                       at_us = now_us ();
                       outcome = Error err;
                     });
                incr completed)
              b
      in
      let feed_slot sl ~obj m =
        let r, evs = P.reader_on_msg sl.machine ~obj m in
        sl.machine <- r;
        List.iter
          (function
            | Core.Events.Broadcast m' -> (
                match sl.st with
                | Sactive a ->
                    Obs.Span.transition a.aspan ~now:(now_us ());
                    a.acur <- m';
                    a.adeadline <- now_f () +. opts.deadline;
                    a.abackoff_until <- 0.;
                    broadcast_slot sl m'
                | Sparked p -> p.pcur <- m'
                | Sidle | Sdone _ -> ())
            | Core.Events.Read_done { value; rounds } -> (
                match sl.st with
                | Sactive a ->
                    let now = now_us () in
                    Obs.Span.finish a.aspan ~now ~rounds
                      ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                    op_metrics a.aspan ~rounds now;
                    let out =
                      {
                        value = Some value;
                        rounds;
                        retransmits = a.aretr;
                        latency_us = now - a.aspan.Obs.Span.started_at;
                      }
                    in
                    sl.st <- Sidle;
                    finish_active sl a (Ok out);
                    fanout_ok sl a ~rounds ~value
                | Sparked p ->
                    let now = now_us () in
                    Obs.Span.finish p.pspan ~now ~rounds
                      ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                    op_metrics p.pspan ~rounds now;
                    sl.st <-
                      Sdone
                        {
                          value = Some value;
                          rounds;
                          retransmits = 0;
                          latency_us = now - p.pspan.Obs.Span.started_at;
                        }
                | Sidle | Sdone _ -> ())
            | Core.Events.Write_done _ -> ())
          evs
      in
      let span_of_st sl =
        match sl.st with
        | Sactive a -> Some a.aspan
        | Sparked p -> Some p.pspan
        | Sidle | Sdone _ -> None
      in
      let deliver_to sl c m =
        meter "delivered" m;
        match sl.st with
        | Sactive _ | Sparked _ ->
            (match span_of_st sl with
            | Some span -> Obs.Span.contact span ~obj:c.index
            | None -> ());
            feed_slot sl ~obj:c.index m
        | Sidle | Sdone _ -> () (* stale ack between operations *)
      in
      let on_frame c = function
        | Codec.Hello_ack { proto; obj } ->
            if proto <> P.name || obj <> c.index then drop c
        | Codec.Err _ ->
            count "net.client.peer_errors";
            drop c
        | Codec.Hello _ -> drop c
        | Codec.Msg m ->
            (* A pre-[Msg_from] server attributes replies to the session
               sender — the first reader machine. *)
            deliver_to slots.(0) c m
        | Codec.Msg_from { sender; msg } -> (
            match slot_of_sender sender with
            | -1 -> () (* reply for a reader of a previous mux: stale *)
            | idx -> deliver_to slots.(idx) c msg)
        | Codec.Msg_key _ ->
            () (* keyed reply: this mux drives only the key-0 register *)
      in
      let handle_conn c =
        match c.fd with
        | None -> ()
        | Some fd -> (
            match Codec.recv_into fd c.reader with
            | 0 -> drop c
            | exception Unix.Unix_error _ -> drop c
            | _ ->
                let rec drain () =
                  if c.fd <> None then
                    match Codec.Reader.next codec c.reader with
                    | Ok `Awaiting -> ()
                    | Error _ ->
                        count "net.client.decode_errors";
                        drop c
                    | Ok (`Frame f) ->
                        on_frame c f;
                        drain ()
                in
                drain ())
      in
      let start_one sl =
        let op = !next_op in
        incr next_op;
        emit (Invoke { op; reader = sl.j; joined = false; at_us = now_us () });
        match sl.st with
        | Sdone out ->
            sl.st <- Sidle;
            results.(op) <- Ok out;
            emit
              (Respond
                 {
                   op;
                   reader = sl.j;
                   joined = false;
                   at_us = now_us ();
                   outcome = Ok out;
                 });
            incr completed
        | Sparked p ->
            (* Resumed round: its round-1 evidence gathering started
               before this op was invoked, so no batch may attach — a
               joiner could be returned evidence older than its invoke,
               which is exactly what regularity forbids. *)
            sl.st <-
              Sactive
                {
                  aop = op;
                  acur = p.pcur;
                  afan = no_fanout;
                  aspan = p.pspan;
                  adeadline = now_f () +. opts.deadline;
                  abackoff_until = 0.;
                  aattempt = 0;
                  aretr = 0;
                  abatch = None;
                };
            broadcast_slot sl p.pcur;
            incr in_flight
        | Sidle -> (
            match P.reader_start sl.machine with
            | Error e ->
                results.(op) <- Error e;
                emit
                  (Respond
                     {
                       op;
                       reader = sl.j;
                       joined = false;
                       at_us = now_us ();
                       outcome = Error e;
                     });
                incr completed
            | Ok (r, m) ->
                sl.machine <- r;
                let span =
                  Obs.Span.start collector
                    (Obs.Span.Read { reader = sl.j })
                    ~proc:("r" ^ string_of_int sl.j)
                    ~now:(now_us ()) ~trace_pos:0
                in
                sl.st <-
                  Sactive
                    {
                      aop = op;
                      acur = m;
                      afan = no_fanout;
                      aspan = span;
                      adeadline = now_f () +. opts.deadline;
                      abackoff_until = 0.;
                      aattempt = 0;
                      aretr = 0;
                      abatch =
                        (if cap > 1 then Some (Coalesce.create ~cap) else None);
                    };
                broadcast_slot sl m;
                incr in_flight)
        | Sactive _ -> assert false
      in
      (* A coalesced read never occupies a slot: it is a (span, result
         cell) hung off the lead's batch, so it costs no reader machine
         and does not count against the in-flight window. *)
      let join_read sl b =
        let op = !next_op in
        incr next_op;
        emit (Invoke { op; reader = sl.j; joined = true; at_us = now_us () });
        let span =
          Obs.Span.start collector
            (Obs.Span.Read { reader = sl.j })
            ~proc:("r" ^ string_of_int sl.j)
            ~now:(now_us ()) ~trace_pos:0
        in
        Coalesce.join b (op, span);
        count "op.coalesced_reads"
      in
      let free_slot () =
        let rec go i =
          if i >= Array.length slots then None
          else
            match slots.(i).st with
            | Sactive _ -> go (i + 1)
            | Sidle | Sparked _ | Sdone _ -> Some slots.(i)
        in
        go 0
      in
      (* All reads target the one register, so any slot whose fresh
         round is still being assembled can host the next op. *)
      let join_slot () =
        let rec go i =
          if i >= Array.length slots then None
          else
            match slots.(i).st with
            | Sactive { abatch = Some b; _ } when Coalesce.can_join b ->
                Some (slots.(i), b)
            | Sactive _ | Sidle | Sparked _ | Sdone _ -> go (i + 1)
        in
        go 0
      in
      (* Admission prefers joining an open batch (free — no new round,
         no window slot) over starting a fresh lead; fresh leads are
         still window-bounded. *)
      let admit_one () =
        !next_op < n
        &&
        match join_slot () with
        | Some (sl, b) ->
            join_read sl b;
            true
        | None -> (
            !in_flight < window
            &&
            match free_slot () with
            | Some sl ->
                start_one sl;
                true
            | None -> false)
      in
      (* The join window ends when the round-1 broadcast leaves the
         process: called right after [flush_all], so a read admitted in
         a later pump iteration chains onto the NEXT round instead of
         adopting evidence gathered before it was invoked. *)
      let close_batches () =
        Array.iter
          (fun sl ->
            match sl.st with
            | Sactive { abatch = Some b; _ } -> Coalesce.close b
            | Sactive _ | Sidle | Sparked _ | Sdone _ -> ())
          slots
      in
      let process_timers now =
        Array.iter
          (fun sl ->
            match sl.st with
            | Sactive a ->
                if a.abackoff_until > 0. then begin
                  if now >= a.abackoff_until then begin
                    a.abackoff_until <- 0.;
                    a.aretr <- a.aretr + 1;
                    count "net.client.retransmits";
                    a.aattempt <- a.aattempt + 1;
                    a.adeadline <- now +. opts.deadline;
                    broadcast_slot sl a.acur
                  end
                end
                else if now >= a.adeadline then
                  if a.aattempt >= opts.retries then begin
                    count "op.read.timeout";
                    let err =
                      Printf.sprintf
                        "read by r%d timed out after %d attempts (%.1fs \
                         deadline, connected objects: %s)"
                        sl.j (a.aattempt + 1) opts.deadline
                        (match connected () with
                        | [] -> "none"
                        | l -> String.concat "," (List.map string_of_int l))
                    in
                    let cur = a.acur and span = a.aspan in
                    sl.st <- Sparked { pcur = cur; pspan = span };
                    finish_active sl a (Error err);
                    fanout_err sl a err
                  end
                  else
                    a.abackoff_until <-
                      now +. retry_backoff opts ~attempt:a.aattempt
            | Sidle | Sparked _ | Sdone _ -> ())
          slots
      in
      let next_wakeup now =
        let acc = ref (now +. 1.0) in
        let any_active = ref false in
        Array.iter
          (fun sl ->
            match sl.st with
            | Sactive a ->
                any_active := true;
                let t =
                  if a.abackoff_until > 0. then a.abackoff_until
                  else a.adeadline
                in
                if t < !acc then acc := t
            | Sidle | Sparked _ | Sdone _ -> ())
          slots;
        if !any_active then
          Array.iter
            (fun c ->
              if c.fd = None && c.next_attempt < !acc then acc := c.next_attempt)
            conns;
        Float.max 0. (!acc -. now)
      in
      let rec pump () =
        if !completed < n then begin
          (* connect before starting ops: a round broadcast only reaches
             endpoints that already have a live fd *)
          ensure_conns (now_f ());
          while admit_one () do
            ()
          done;
          flush_all ();
          close_batches ();
          if !completed >= n then ()
          else begin
            let fds = Array.to_list conns |> List.filter_map (fun c -> c.fd) in
            let timeout = next_wakeup (now_f ()) in
            (if fds = [] then idle_wait timeout
             else
               match Unix.select fds [] [] timeout with
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | ready, _, _ ->
                   List.iter
                     (fun fd ->
                       Array.iter
                         (fun c -> if c.fd = Some fd then handle_conn c)
                         conns)
                     ready);
            process_timers (now_f ());
            pump ()
          end
        end
      in
      pump ();
      if n = 0 then [||] else results
    in
    let close_all () =
      Array.iter
        (fun c ->
          drop c;
          Codec.Reader.recycle c.reader;
          Codec.Out.recycle c.out)
        conns
    in
    {
      mux_run = run;
      mux_spans = (fun () -> Obs.Span.spans collector);
      mux_connected = connected;
      mux_close = close_all;
    }

  let run_reads ?on_event t n = t.mux_run ?on_event n

  let spans t = t.mux_spans ()

  let connected t = t.mux_connected ()

  let close t = t.mux_close ()
end

(* ===== keyed multiplexing client ========================================= *)

(* The keyspace client: one event loop drives reader AND writer automata
   for many keys over one connection per fleet server.  Placement comes
   from [Shard.Map]: a key's traffic goes as [Msg_key] frames to members
   of its shard only, and replies demux by the echoed (key, sender)
   pair.  A fresh round's message goes to S−t of the S members — the
   round waits for that many replies anyway — and widens to the rest
   only when a contacted member is lost, the round is still undecided
   once everyone contacted has answered, or the last contacted member
   is slow (DESIGN §17).  Automata are per key and lazily materialized
   — a key's reader keeps its own §5.1 timestamp cache and GC floor,
   its writer its own monotone timestamps, so keys are as independent
   over the wire as they are in the simulator (which is what makes
   per-shard correctness the single-register argument verbatim).

   Objects are attributed by their fleet-global 1-based index (the
   connection's [index]): the automata only ever count DISTINCT object
   ids against the quorum thresholds and key their reply maps by id, so
   they never require the contiguous 1..S space — a shard's S member
   ids work unchanged.

   Ordering: per (key, role) at most one operation is in flight; excess
   ops queue FIFO, so per-key reads and per-key writes each stay
   program-ordered while different keys overlap freely up to the
   window.  A read and a write on the SAME key may overlap — they are
   different automata, exactly the paper's concurrent reader/writer.

   Single-writer discipline is the caller's: the registers are SWMR, so
   at most one process may ever write a given key (the load driver
   partitions write ownership by [Shard.Map.mix key]). *)

type ('m, 'r, 'w) kreg = {
  kkey : int;
  kshard : int;
  kconns : int array;  (* fleet slots (0-based) of the key's shard members *)
  mutable krd : 'r;  (* this key's reader automaton *)
  mutable kwr : 'w;  (* this key's writer automaton *)
  mutable krst : 'm slot_state;  (* in-flight read, if any *)
  mutable kwst : 'm slot_state;  (* in-flight write, if any *)
  krq : int Queue.t;  (* queued read op indices, program order *)
  kwq : int Queue.t;  (* queued write op indices, program order *)
}

module Keyed = struct
  type kop = Read of { key : int } | Write of { key : int; value : Core.Value.t }

  let op_key = function Read { key } | Write { key; _ } -> key

  let op_is_write = function Read _ -> false | Write _ -> true

  (* The [q] connected members with the fewest unanswered frames, ties
     to the lower slot; every connected member when fewer than [q] are.
     O(q·S) scans, no sort: S is a shard's size. *)
  let pick ~members ~connected ~unanswered ~q =
    let n = Array.length members in
    let chosen = Array.make n false in
    let rec go k =
      if k < q then begin
        let best = ref (-1) in
        for rank = 0 to n - 1 do
          let slot = members.(rank) in
          if (not chosen.(rank)) && connected slot then
            if !best < 0 then best := rank
            else
              let b = members.(!best) in
              let u = unanswered slot and ub = unanswered b in
              if u < ub || (u = ub && slot < b) then best := rank
        done;
        if !best >= 0 then begin
          chosen.(!best) <- true;
          go (k + 1)
        end
      end
    in
    go 0;
    chosen

  (* [joined] marks a coalesced read: it never ran its own quorum round
     but adopted the result of the round its key's reader was assembling
     when it was invoked.  Writes never coalesce. *)
  type event =
    | Invoke of { op : int; key : int; write : bool; joined : bool; at_us : int }
    | Respond of {
        op : int;
        key : int;
        write : bool;
        joined : bool;
        at_us : int;
        outcome : (outcome, string) result;
      }

  type t = {
    krun :
      ?on_event:(event -> unit) -> kop array -> (outcome, string) result array;
    kspans : unit -> Obs.Span.t list;
    kconnected : unit -> int list;
    kclose : unit -> unit;
    kkeys_touched : unit -> int;
  }

  let connect ?metrics ?(opts = default_opts) ?now_us ?(max_inflight = 16)
      ?(reader = 1) ?(coalesce = 1) ~protocol ~map endpoints =
    Lazy.force ignore_sigpipe;
    let (Protocols.Packed { proto = (module P); codec }) = protocol in
    let cap = max 1 coalesce in
    let cfg = Shard.Map.cfg map in
    let fleet = Shard.Map.fleet map in
    if Array.length endpoints <> fleet then
      invalid_arg
        (Printf.sprintf "Keyed.connect: %d endpoints for a fleet of %d"
           (Array.length endpoints) fleet);
    if reader < 1 then
      invalid_arg (Printf.sprintf "Keyed.connect: reader = %d" reader);
    let window = max 1 max_inflight in
    let now_f = now_s in
    let now_us =
      match now_us with
      | Some f -> f
      | None ->
          let t0 = now_f () in
          fun () -> int_of_float ((now_f () -. t0) *. 1e6)
    in
    let collector = Obs.Span.collector () in
    let count name =
      match metrics with None -> () | Some reg -> Obs.Metrics.incr reg name
    in
    let meter stage m =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.incr reg
            ("wire." ^ Obs.Wire.to_string (P.msg_class m) ^ "." ^ stage)
    in
    let conns = Array.mapi mk_conn endpoints in
    let rname = "r" ^ string_of_int reader in
    let sender_of write = if write then "w" else rname in
    (* key -> per-key automata + in-flight state, lazily materialized *)
    let regs : (int, (P.msg, P.reader, P.writer) kreg) Hashtbl.t =
      Hashtbl.create 1024
    in
    let reg_for key =
      match Hashtbl.find_opt regs key with
      | Some r -> r
      | None ->
          let shard = Shard.Map.shard_of_key map key in
          let r =
            {
              kkey = key;
              kshard = shard;
              kconns = Shard.Map.members map ~shard;
              krd = P.reader_init ~cfg ~j:reader;
              kwr = P.writer_init ~cfg;
              krst = Sidle;
              kwst = Sidle;
              krq = Queue.create ();
              kwq = Queue.create ();
            }
          in
          Hashtbl.replace regs key r;
          r
    in
    let append_key c ~key ~sender m =
      match c.fd with
      | None -> ()
      | Some _ ->
          meter "sent" m;
          let before = Codec.Out.length c.out in
          Codec.encode_frame_into codec c.out (Codec.Msg_key { key; sender; msg = m });
          observe_frame_bytes metrics (Codec.Out.length c.out - before);
          c.frames_out <- c.frames_out + 1;
          c.unanswered <- c.unanswered + 1
    in
    let q = Quorum.Config.quorum cfg in
    let new_fanout r =
      let n = Array.length r.kconns in
      {
        sent = Array.make n false;
        answered = Array.make n false;
        nsent = 0;
        nans = 0;
        started = 0.;
        hedge_at = 0.;
      }
    in
    (* A fresh round: [m] goes to the [q] members [pick] chooses, and the
       fanout restarts for it. *)
    let send_fresh r ~sender f m =
      f.sent <-
        pick ~members:r.kconns
          ~connected:(fun slot -> conns.(slot).fd <> None)
          ~unanswered:(fun slot -> conns.(slot).unanswered)
          ~q;
      Array.fill f.answered 0 (Array.length f.answered) false;
      f.nsent <- 0;
      f.nans <- 0;
      f.started <- now_f ();
      f.hedge_at <- 0.;
      Array.iteri
        (fun rank slot ->
          if f.sent.(rank) then begin
            append_key conns.(slot) ~key:r.kkey ~sender m;
            f.nsent <- f.nsent + 1
          end)
        r.kconns
    in
    (* Deadline retransmits and resumed rounds go to every member. *)
    let send_all r ~sender f m =
      Array.iter
        (fun slot -> append_key conns.(slot) ~key:r.kkey ~sender m)
        r.kconns;
      Array.fill f.sent 0 (Array.length f.sent) true;
      f.nsent <- Array.length f.sent;
      f.hedge_at <- 0.
    in
    (* Send the current message to the connected members it skipped;
       [why] names the trigger's counter. *)
    let widen r ~sender f m why =
      let before = f.nsent in
      Array.iteri
        (fun rank slot ->
          let c = conns.(slot) in
          if (not f.sent.(rank)) && c.fd <> None then begin
            append_key c ~key:r.kkey ~sender m;
            f.sent.(rank) <- true;
            f.nsent <- f.nsent + 1
          end)
        r.kconns;
      f.hedge_at <- 0.;
      if f.nsent > before then count why
    in
    let rank_of r c =
      Shard.Map.rank_of_slot map ~shard:r.kshard ~slot:(c.index - 1)
    in
    (* A re-established connection may front a restarted (possibly
       wiped) server: every key's reader clears its timestamp cache, so
       no suffix request trusts state the server no longer has. *)
    let resync_all () =
      count "op.cache_resyncs";
      Hashtbl.iter (fun _ r -> r.krd <- P.reader_on_reconnect r.krd) regs
    in
    let ensure_conns now =
      Array.iter
        (fun c ->
          if c.fd = None && now >= c.next_attempt then
            try_connect ~count ~codec ~proto_name:P.name ~proc:rname
              ~on_reconnect:resync_all c)
        conns
    in
    let connected () =
      Array.to_list conns
      |> List.filter_map (fun c ->
             match c.fd with Some _ -> Some c.index | None -> None)
    in
    let op_metrics ~kind span ~rounds now =
      match metrics with
      | None -> ()
      | Some reg ->
          let k = "op." ^ Obs.Span.kind_to_string kind in
          Obs.Metrics.incr reg (k ^ ".completed");
          Obs.Metrics.observe_int reg (k ^ ".rounds")
            ~bounds:Obs.Metrics.round_bounds span.Obs.Span.rounds;
          Obs.Metrics.observe_int reg (k ^ ".latency_us")
            ~bounds:Obs.Metrics.wallclock_bounds
            (now - span.Obs.Span.started_at);
          Obs.Metrics.observe_int reg (k ^ ".replies")
            ~bounds:Obs.Metrics.count_bounds span.Obs.Span.replies;
          Obs.Metrics.observe_int reg (k ^ ".contacted")
            ~bounds:Obs.Metrics.count_bounds
            (List.length (Obs.Span.contacted span));
          (match kind with
          | Obs.Span.Read _ ->
              Obs.Metrics.incr reg
                (if rounds <= 1 then "op.fast_reads" else "op.fallback_rounds")
          | Obs.Span.Write -> ())
    in
    (* Per-shard fast-read engagement: E19's per-shard evidence that the
       §5.1 one-round path survives sharding. *)
    let shard_read_metric r ~rounds =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.incr reg (Printf.sprintf "shard.%d.reads" r.kshard);
          if rounds <= 1 then
            Obs.Metrics.incr reg (Printf.sprintf "shard.%d.fast_reads" r.kshard)
    in
    (* Batch width is observed once per member (the histogram weights by
       op, not by round); only recorded when coalescing is on. *)
    let observe_width w =
      match metrics with
      | None -> ()
      | Some reg ->
          Obs.Metrics.observe_int reg "op.coalesce_width"
            ~bounds:Obs.Metrics.batch_bounds w
    in
    let run ?on_event ops =
      let n = Array.length ops in
      let results = Array.make (max n 1) (Error "operation not run") in
      let emit e = match on_event with Some f -> f e | None -> () in
      let next_op = ref 0 in
      let completed = ref 0 in
      let in_flight = ref 0 in
      (* (key, is_write) pairs currently in flight — bounded by the
         window, so timers never scan the whole key table — plus roles
         freed by a completion, whose queued successor starts from the
         pump loop (never from inside an automaton event iteration). *)
      let actives :
          (int * bool, (P.msg, P.reader, P.writer) kreg) Hashtbl.t =
        Hashtbl.create 64
      in
      let freed : ((P.msg, P.reader, P.writer) kreg * bool) Queue.t =
        Queue.create ()
      in
      let get_st r ~write = if write then r.kwst else r.krst in
      let set_st r ~write st =
        if write then r.kwst <- st else r.krst <- st
      in
      let queue_of r ~write = if write then r.kwq else r.krq in
      let finish_op r ~write (a : _ active) outcome =
        results.(a.aop) <- outcome;
        emit
          (Respond
             {
               op = a.aop;
               key = r.kkey;
               write;
               joined = false;
               at_us = now_us ();
               outcome;
             });
        Hashtbl.remove actives (r.kkey, write);
        Queue.add (r, write) freed;
        incr completed;
        decr in_flight
      in
      (* Fan a completed lead read's value out to every read that joined
         its round: each joiner is a logical op with its own span and
         per-op/per-shard metrics, but it ran no network round, so
         [in_flight] is untouched. *)
      let fanout_ok r (a : _ active) ~rounds ~value =
        match a.abatch with
        | None -> ()
        | Some b ->
            let w = Coalesce.width b in
            observe_width w;
            Coalesce.iter_joiners
              (fun (op, span) ->
                let now = now_us () in
                Obs.Span.finish span ~now ~rounds
                  ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                op_metrics ~kind:(Obs.Span.Read { reader }) span ~rounds now;
                shard_read_metric r ~rounds;
                observe_width w;
                let out =
                  {
                    value = Some value;
                    rounds;
                    retransmits = 0;
                    latency_us = now - span.Obs.Span.started_at;
                  }
                in
                results.(op) <- Ok out;
                emit
                  (Respond
                     {
                       op;
                       key = r.kkey;
                       write = false;
                       joined = true;
                       at_us = now;
                       outcome = Ok out;
                     });
                incr completed)
              b
      in
      (* A lead that times out fails its whole batch: the joiners'
         evidence was the lead's round.  Their spans stay open, like any
         failed op's. *)
      let fanout_err r (a : _ active) err =
        match a.abatch with
        | None -> ()
        | Some b ->
            Coalesce.iter_joiners
              (fun (op, _span) ->
                results.(op) <- Error err;
                emit
                  (Respond
                     {
                       op;
                       key = r.kkey;
                       write = false;
                       joined = true;
                       at_us = now_us ();
                       outcome = Error err;
                     });
                incr completed)
              b
      in
      let feed_reg r ~write ~obj m =
        let evs =
          if write then begin
            let w, evs = P.writer_on_msg r.kwr ~obj m in
            r.kwr <- w;
            evs
          end
          else begin
            let rd, evs = P.reader_on_msg r.krd ~obj m in
            r.krd <- rd;
            evs
          end
        in
        List.iter
          (function
            | Core.Events.Broadcast m' -> (
                match get_st r ~write with
                | Sactive a ->
                    Obs.Span.transition a.aspan ~now:(now_us ());
                    a.acur <- m';
                    a.adeadline <- now_f () +. opts.deadline;
                    a.abackoff_until <- 0.;
                    send_fresh r ~sender:(sender_of write) a.afan m'
                | Sparked p -> p.pcur <- m'
                | Sidle | Sdone _ -> ())
            | Core.Events.Read_done { value; rounds } ->
                if not write then begin
                  match get_st r ~write with
                  | Sactive a ->
                      shard_read_metric r ~rounds;
                      let now = now_us () in
                      Obs.Span.finish a.aspan ~now ~rounds
                        ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                      op_metrics
                        ~kind:(Obs.Span.Read { reader })
                        a.aspan ~rounds now;
                      let out =
                        {
                          value = Some value;
                          rounds;
                          retransmits = a.aretr;
                          latency_us = now - a.aspan.Obs.Span.started_at;
                        }
                      in
                      set_st r ~write Sidle;
                      finish_op r ~write a (Ok out);
                      fanout_ok r a ~rounds ~value
                  | Sparked p ->
                      shard_read_metric r ~rounds;
                      let now = now_us () in
                      Obs.Span.finish p.pspan ~now ~rounds
                        ~result:(Core.Value.to_string value) ~trace_pos:0 ();
                      op_metrics
                        ~kind:(Obs.Span.Read { reader })
                        p.pspan ~rounds now;
                      set_st r ~write
                        (Sdone
                           {
                             value = Some value;
                             rounds;
                             retransmits = 0;
                             latency_us = now - p.pspan.Obs.Span.started_at;
                           })
                  | Sidle | Sdone _ -> ()
                end
            | Core.Events.Write_done { rounds } ->
                if write then begin
                  match get_st r ~write with
                  | Sactive a ->
                      let now = now_us () in
                      Obs.Span.finish a.aspan ~now ~rounds ~trace_pos:0 ();
                      op_metrics ~kind:Obs.Span.Write a.aspan ~rounds now;
                      let out =
                        {
                          value = None;
                          rounds;
                          retransmits = a.aretr;
                          latency_us = now - a.aspan.Obs.Span.started_at;
                        }
                      in
                      set_st r ~write Sidle;
                      finish_op r ~write a (Ok out)
                  | Sparked p ->
                      let now = now_us () in
                      Obs.Span.finish p.pspan ~now ~rounds ~trace_pos:0 ();
                      op_metrics ~kind:Obs.Span.Write p.pspan ~rounds now;
                      set_st r ~write
                        (Sdone
                           {
                             value = None;
                             rounds;
                             retransmits = 0;
                             latency_us = now - p.pspan.Obs.Span.started_at;
                           })
                  | Sidle | Sdone _ -> ()
                end)
          evs
      in
      (* Marks [c] as having answered the round's current message; a
         reply of another round (a late one from the round before) does
         not count. *)
      let note_answer r (a : _ active) c m =
        let f = a.afan in
        match rank_of r c with
        | Some rank
          when f.sent.(rank)
               && (not f.answered.(rank))
               && (P.msg_class m).Obs.Wire.round
                  = (P.msg_class a.acur).Obs.Wire.round ->
            f.answered.(rank) <- true;
            f.nans <- f.nans + 1;
            true
        | Some _ | None -> false
      in
      (* After a counted answer, if the automaton neither decided nor
         started a new round: widen once everyone contacted has answered
         (undecided), or arm the hedge once all but one have — the last
         one gets as long again as the round has taken so far. *)
      let after_answer r ~write (a : _ active) =
        match get_st r ~write with
        | Sactive a' when a' == a ->
            let f = a.afan in
            if f.nans = f.nsent then
              widen r ~sender:(sender_of write) f a.acur "op.expand.undecided"
            else if
              f.nans >= 1
              && f.nans = f.nsent - 1
              && f.hedge_at = 0.
              && f.nsent < Array.length f.sent
            then begin
              let now = now_f () in
              f.hedge_at <- now +. (now -. f.started)
            end
        | Sactive _ | Sidle | Sparked _ | Sdone _ -> ()
      in
      (* A contacted member that had not answered is gone: its request
         is lost, so it no longer counts as contacted, and the round
         widens to the members it skipped. *)
      let on_lost c =
        Hashtbl.iter
          (fun (_, write) r ->
            match get_st r ~write with
            | Sactive a -> (
                let f = a.afan in
                match rank_of r c with
                | Some rank when f.sent.(rank) && not f.answered.(rank) ->
                    f.sent.(rank) <- false;
                    f.nsent <- f.nsent - 1;
                    widen r ~sender:(sender_of write) f a.acur "op.expand.lost"
                | Some _ | None -> ())
            | Sidle | Sparked _ | Sdone _ -> ())
          actives
      in
      let drop c =
        if c.fd <> None then begin
          drop_conn ~count c;
          on_lost c
        end
      in
      (* A failed flush drops its connection too; the widening that
         follows appends to other connections, so flush again. *)
      let rec flush_all () =
        let lost = ref false in
        Array.iter
          (fun c ->
            let up = c.fd <> None in
            flush_conn ?metrics ~count c;
            if up && c.fd = None then begin
              lost := true;
              on_lost c
            end)
          conns;
        if !lost then flush_all ()
      in
      let deliver_key c ~key ~sender m =
        c.unanswered <- 0;
        match Hashtbl.find_opt regs key with
        | None -> () (* reply for a key this client never touched: stale *)
        | Some r -> (
            let role =
              if String.equal sender "w" then Some true
              else if String.equal sender rname then Some false
              else None (* another client's reader: stale, ignore *)
            in
            match role with
            | None -> ()
            | Some write -> (
                match get_st r ~write with
                | Sactive a ->
                    meter "delivered" m;
                    Obs.Span.contact a.aspan ~obj:c.index;
                    let counted = note_answer r a c m in
                    feed_reg r ~write ~obj:c.index m;
                    if counted then after_answer r ~write a
                | Sparked p ->
                    meter "delivered" m;
                    Obs.Span.contact p.pspan ~obj:c.index;
                    feed_reg r ~write ~obj:c.index m
                | Sidle | Sdone _ -> () (* stale ack between operations *)))
      in
      let on_frame c = function
        | Codec.Hello_ack { proto; obj } ->
            if proto <> P.name || obj <> c.index then drop c
        | Codec.Err _ ->
            count "net.client.peer_errors";
            drop c
        | Codec.Hello _ -> drop c
        | Codec.Msg m ->
            (* pre-keyspace server: untagged replies belong to key 0 *)
            deliver_key c ~key:0 ~sender:rname m
        | Codec.Msg_from { sender; msg } -> deliver_key c ~key:0 ~sender msg
        | Codec.Msg_key { key; sender; msg } -> deliver_key c ~key ~sender msg
      in
      let handle_conn c =
        match c.fd with
        | None -> ()
        | Some fd -> (
            match Codec.recv_into fd c.reader with
            | 0 -> drop c
            | exception Unix.Unix_error _ -> drop c
            | _ ->
                let rec drain () =
                  if c.fd <> None then
                    match Codec.Reader.next codec c.reader with
                    | Ok `Awaiting -> ()
                    | Error _ ->
                        count "net.client.decode_errors";
                        drop c
                    | Ok (`Frame f) ->
                        on_frame c f;
                        drain ()
                in
                drain ())
      in
      (* A coalesced read occupies no (key, role) slot: it is a (span,
         result cell) hung off the lead's batch, costing no automaton
         state and no window slot. *)
      let join_read idx r b =
        emit
          (Invoke
             {
               op = idx;
               key = r.kkey;
               write = false;
               joined = true;
               at_us = now_us ();
             });
        let span =
          Obs.Span.start collector
            (Obs.Span.Read { reader })
            ~proc:rname ~now:(now_us ()) ~trace_pos:0
        in
        Coalesce.join b (idx, span);
        count "op.coalesced_reads"
      in
      (* [start_now] requires the role NOT be [Sactive]; [start_next]
         pops the role's queue once it is free.  A synchronous
         completion (adopted [Sdone], start error) recurses into
         [start_next] — safe here because these only run from the pump
         loop, never mid automaton-event iteration. *)
      let rec start_now idx r ~write =
        emit
          (Invoke
             { op = idx; key = r.kkey; write; joined = false; at_us = now_us () });
        match get_st r ~write with
        | Sdone out ->
            set_st r ~write Sidle;
            results.(idx) <- Ok out;
            emit
              (Respond
                 {
                   op = idx;
                   key = r.kkey;
                   write;
                   joined = false;
                   at_us = now_us ();
                   outcome = Ok out;
                 });
            incr completed;
            start_next r ~write
        | Sparked p ->
            (* Resumed round: its round-1 evidence gathering started
               before this op was invoked, so no batch may attach — a
               joiner could be returned evidence older than its invoke,
               which is exactly what regularity forbids. *)
            let f = new_fanout r in
            set_st r ~write
              (Sactive
                 {
                   aop = idx;
                   acur = p.pcur;
                   afan = f;
                   aspan = p.pspan;
                   adeadline = now_f () +. opts.deadline;
                   abackoff_until = 0.;
                   aattempt = 0;
                   aretr = 0;
                   abatch = None;
                 });
            Hashtbl.replace actives (r.kkey, write) r;
            send_all r ~sender:(sender_of write) f p.pcur;
            incr in_flight
        | Sidle -> (
            let started =
              if write then
                match ops.(idx) with
                | Write { value; _ } -> (
                    match P.writer_start r.kwr value with
                    | Ok (w, m) ->
                        r.kwr <- w;
                        Ok m
                    | Error e -> Error e)
                | Read _ -> assert false
              else
                match P.reader_start r.krd with
                | Ok (rd, m) ->
                    r.krd <- rd;
                    Ok m
                | Error e -> Error e
            in
            match started with
            | Error e ->
                results.(idx) <- Error e;
                emit
                  (Respond
                     {
                       op = idx;
                       key = r.kkey;
                       write;
                       joined = false;
                       at_us = now_us ();
                       outcome = Error e;
                     });
                incr completed;
                start_next r ~write
            | Ok m ->
                let kind =
                  if write then Obs.Span.Write else Obs.Span.Read { reader }
                in
                let span =
                  Obs.Span.start collector kind ~proc:(sender_of write)
                    ~now:(now_us ()) ~trace_pos:0
                in
                let batch =
                  if write || cap <= 1 then None
                  else Some (Coalesce.create ~cap)
                in
                let f = new_fanout r in
                set_st r ~write
                  (Sactive
                     {
                       aop = idx;
                       acur = m;
                       afan = f;
                       aspan = span;
                       adeadline = now_f () +. opts.deadline;
                       abackoff_until = 0.;
                       aattempt = 0;
                       aretr = 0;
                       abatch = batch;
                     });
                Hashtbl.replace actives (r.kkey, write) r;
                send_fresh r ~sender:(sender_of write) f m;
                incr in_flight;
                (* Piggyback: reads already queued behind this key ride
                   the fresh round — they were invoked before its
                   broadcast was even assembled, so joining preserves
                   both regularity and per-key program order. *)
                match batch with
                | None -> ()
                | Some b ->
                    while
                      (not (Queue.is_empty r.krq)) && Coalesce.can_join b
                    do
                      join_read (Queue.pop r.krq) r b
                    done)
        | Sactive _ -> assert false
      and start_next r ~write =
        match get_st r ~write with
        | Sactive _ -> ()
        | Sidle | Sparked _ | Sdone _ ->
            let q = queue_of r ~write in
            if not (Queue.is_empty q) then start_now (Queue.pop q) r ~write
      in
      (* Admission: join the key's in-assembly read round if one is
         open (and nothing is queued ahead — program order); otherwise
         start if the (key, role) is free, else enqueue. *)
      let admit idx =
        let op = ops.(idx) in
        let key = op_key op and write = op_is_write op in
        let r = reg_for key in
        let q = queue_of r ~write in
        match get_st r ~write with
        | Sactive a -> (
            match a.abatch with
            | Some b when (not write) && Queue.is_empty q && Coalesce.can_join b
              ->
                join_read idx r b
            | Some _ | None -> Queue.add idx q)
        | Sidle | Sparked _ | Sdone _ ->
            if Queue.is_empty q then start_now idx r ~write
            else Queue.add idx q
      in
      (* Past the in-flight window only joins are admissible: they add
         no round and must not queue (queuing past the window would
         defeat its backpressure), so peek rather than admit. *)
      let try_join_next () =
        !next_op < n
        &&
        let op = ops.(!next_op) in
        (not (op_is_write op))
        &&
        match Hashtbl.find_opt regs (op_key op) with
        | None -> false
        | Some r -> (
            match r.krst with
            | Sactive { abatch = Some b; _ }
              when Queue.is_empty r.krq && Coalesce.can_join b ->
                join_read !next_op r b;
                incr next_op;
                true
            | Sactive _ | Sidle | Sparked _ | Sdone _ -> false)
      in
      (* The join window ends when the round-1 broadcast leaves the
         process: called right after [flush_all], so later reads chain
         onto the NEXT round instead of adopting evidence gathered
         before they were invoked. *)
      let close_batches () =
        Hashtbl.iter
          (fun (_, write) r ->
            if not write then
              match r.krst with
              | Sactive { abatch = Some b; _ } -> Coalesce.close b
              | Sactive _ | Sidle | Sparked _ | Sdone _ -> ())
          actives
      in
      let process_timers now =
        let acts = Hashtbl.fold (fun k r acc -> (k, r) :: acc) actives [] in
        List.iter
          (fun ((_, write), r) ->
            match get_st r ~write with
            | Sactive a ->
                let sender = sender_of write in
                if a.afan.hedge_at > 0. && now >= a.afan.hedge_at then
                  widen r ~sender a.afan a.acur "op.expand.hedge";
                if a.abackoff_until > 0. then begin
                  if now >= a.abackoff_until then begin
                    a.abackoff_until <- 0.;
                    a.aretr <- a.aretr + 1;
                    count "net.client.retransmits";
                    a.aattempt <- a.aattempt + 1;
                    a.adeadline <- now +. opts.deadline;
                    send_all r ~sender a.afan a.acur
                  end
                end
                else if now >= a.adeadline then
                  if a.aattempt >= opts.retries then begin
                    count
                      (if write then "op.write.timeout" else "op.read.timeout");
                    let err =
                      Printf.sprintf
                        "%s of key %d timed out after %d attempts (%.1fs \
                         deadline, connected objects: %s)"
                        (if write then "write" else "read")
                        r.kkey (a.aattempt + 1) opts.deadline
                        (match connected () with
                        | [] -> "none"
                        | l -> String.concat "," (List.map string_of_int l))
                    in
                    let cur = a.acur and span = a.aspan in
                    set_st r ~write (Sparked { pcur = cur; pspan = span });
                    finish_op r ~write a (Error err);
                    fanout_err r a err
                  end
                  else
                    a.abackoff_until <-
                      now +. retry_backoff opts ~attempt:a.aattempt
            | Sidle | Sparked _ | Sdone _ -> ())
          acts
      in
      let next_wakeup now =
        let acc = ref (now +. 1.0) in
        Hashtbl.iter
          (fun (_, write) r ->
            match get_st r ~write with
            | Sactive a ->
                let t =
                  if a.abackoff_until > 0. then a.abackoff_until
                  else a.adeadline
                in
                let t =
                  if a.afan.hedge_at > 0. then Float.min t a.afan.hedge_at
                  else t
                in
                if t < !acc then acc := t
            | Sidle | Sparked _ | Sdone _ -> ())
          actives;
        if Hashtbl.length actives > 0 then
          Array.iter
            (fun c ->
              if c.fd = None && c.next_attempt < !acc then acc := c.next_attempt)
            conns;
        Float.max 0. (!acc -. now)
      in
      let rec pump () =
        if !completed < n then begin
          ensure_conns (now_f ());
          (* freed roles first: their queued successors preserve per-key
             program order ahead of fresh admissions *)
          while not (Queue.is_empty freed) do
            let r, write = Queue.pop freed in
            start_next r ~write
          done;
          while !in_flight < window && !next_op < n do
            admit !next_op;
            incr next_op
          done;
          while try_join_next () do
            ()
          done;
          flush_all ();
          close_batches ();
          if !completed >= n then ()
          else begin
            let fds = Array.to_list conns |> List.filter_map (fun c -> c.fd) in
            let timeout = next_wakeup (now_f ()) in
            (if fds = [] then idle_wait timeout
             else
               match Unix.select fds [] [] timeout with
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | ready, _, _ ->
                   List.iter
                     (fun fd ->
                       Array.iter
                         (fun c -> if c.fd = Some fd then handle_conn c)
                         conns)
                     ready);
            process_timers (now_f ());
            pump ()
          end
        end
      in
      pump ();
      if n = 0 then [||] else results
    in
    let close_all () =
      Array.iter
        (fun c ->
          drop_conn ~count c;
          Codec.Reader.recycle c.reader;
          Codec.Out.recycle c.out)
        conns
    in
    {
      krun = run;
      kspans = (fun () -> Obs.Span.spans collector);
      kconnected = connected;
      kclose = close_all;
      kkeys_touched = (fun () -> Hashtbl.length regs);
    }

  let run_ops ?on_event t ops = t.krun ?on_event ops

  let spans t = t.kspans ()

  let connected t = t.kconnected ()

  let keys_touched t = t.kkeys_touched ()

  let close t = t.kclose ()
end
