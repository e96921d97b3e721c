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

(* Where the event loop parks when every endpoint is down: sleep a
   bounded slice of the next-wakeup timeout, so reconnect attempts stay
   paced without spinning and without oversleeping a near deadline. *)
let idle_wait timeout = Thread.delay (Float.max 0.001 (Float.min 0.01 timeout))

type outcome = {
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

let drop_conn ~count c =
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
      count "net.client.disconnects"

(* Connect and send the session [Hello]; failures are penalized and
   (rate-limitedly) reported.  [on_reconnect] fires when the endpoint
   had been connected before — the server behind it may have restarted
   (possibly wiped), so protocols with client-side cached state must
   resync (see {!Core.Protocol_intf.S.reader_on_reconnect}). *)
let try_connect ~count ~on_reconnect ~codec ~proto_name ~proc c =
  match Endpoint.dial c.ep with
  | fd -> (
      Codec.Reader.reset c.reader;
      c.fails <- 0;
      c.fd <- Some fd;
      let reconnected = c.ever in
      c.ever <- true;
      count "net.client.connects";
      if reconnected then on_reconnect ();
      try
        Codec.encode_frame_into codec c.out
          (Codec.Hello { proto = proto_name; sender = proc; obj = c.index });
        Codec.flush fd c.out;
        c.frames_out <- 0
      with Unix.Unix_error _ -> drop_conn ~count c)
  | exception Unix.Unix_error (err, _, _) ->
      let now = now_s () in
      penalize c ~now;
      (* Chaos runs assert on reconnect behaviour: every failed attempt
         counts in the registry even when the stderr warning above is
         rate-limited away. *)
      count "op.reconnects";
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
let flush_conn ?metrics ~count c =
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
            with Unix.Unix_error _ -> drop_conn ~count c)
        | Some reg -> (
            let t0 = now_s () in
            try
              Codec.flush fd c.out;
              Obs.Metrics.observe_int reg "wire.batch_size"
                ~bounds:Obs.Metrics.batch_bounds frames;
              Obs.Metrics.observe_int reg "wire.flush_us"
                ~bounds:Obs.Metrics.wallclock_bounds
                (int_of_float ((now_s () -. t0) *. 1e6))
            with Unix.Unix_error _ -> drop_conn ~count c))
  end


(* ===== the client engine ================================================= *)

(* One event loop drives reader AND writer automata for a whole keyspace
   over one connection per fleet server.  Placement comes from
   [Shard.Map]: a key's traffic goes as [Msg_key] frames to members of
   its shard only, and replies demux by the echoed (key, sender) pair.
   The single register is key 0 of a one-key map ([Shard.Map.single]).
   A fresh round's message goes to S−t of the S members — the round
   waits for that many replies anyway — and widens to the rest only when
   a contacted member is lost, the round is still undecided once
   everyone contacted has answered, or the last contacted member is
   slow (DESIGN §17).  Automata are per key and lazily materialized — a
   key's readers keep their own §5.1 timestamp caches and GC floors, its
   writer its own monotone timestamps, so keys are as independent over
   the wire as they are in the simulator (which is what makes per-shard
   correctness the single-register argument verbatim).

   Each key has one writer and [readers] reader lanes.  A lane is a
   reader automaton with its own reader id; it runs one operation at a
   time (its round timestamps are per-op), so a key's concurrent reads
   are its lanes.  Objects are attributed by their fleet-global 1-based
   index (the connection's [index]): the automata only ever count
   DISTINCT object ids against the quorum thresholds and key their reply
   maps by id, so a shard's S member ids need not be contiguous.

   Ordering: per (key, role) at most one operation is in flight, and
   excess ops queue FIFO per key, so a key's writes stay program-ordered
   and its reads start in program order; different keys overlap freely
   up to the window.  A read and a write on the SAME key may overlap —
   they are different automata, exactly the paper's concurrent
   reader/writer.

   Single-writer discipline is the caller's: the registers are SWMR, so
   at most one process may ever write a given key (the load driver
   partitions write ownership by [Shard.Map.mix key]). *)

(* Who a round's current message went to, by shard rank (DESIGN §17).
   [sent] members were sent the message and may still answer it;
   [answered] ones did, with a reply to that message. *)
type fanout = {
  mutable sent : bool array;
  answered : bool array;
  mutable nsent : int;
  mutable nans : int;
  mutable started : float;  (* when the current message first went out *)
  mutable hedge_at : float;  (* 0. = not armed *)
}

type 'm active = {
  aop : int;  (* index into the run's result array *)
  mutable acur : 'm;  (* current round's broadcast *)
  afan : fanout;
  aspan : Obs.Span.t;
  aowns : bool;
      (* the op started [aspan], so its [Respond] hands the span out; a
         resumed round's span went out with the op that started it *)
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
   automata); the next op on the same (key, role) resumes it.  If replies
   trickle in while parked and complete the op, the result is stashed
   ([Sdone]) and adopted by the next op. *)
type 'm slot_state =
  | Sidle
  | Sactive of 'm active
  | Sparked of { mutable pcur : 'm; pspan : Obs.Span.t }
  | Sdone of outcome

type ('m, 'r, 'w) kreg = {
  kkey : int;
  kshard : int;
  kconns : int array;  (* fleet slots (0-based) of the key's shard members *)
  krd : 'r array;  (* lane i's reader automaton (reader id [reader + i]) *)
  krst : 'm slot_state array;  (* lane i's in-flight read, if any *)
  mutable kwr : 'w;  (* this key's writer automaton *)
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
     but adopted the result of the round a lane of its key was
     assembling when it was invoked.  Writes never coalesce. *)
  type event =
    | Invoke of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
      }
    | Respond of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
        outcome : (outcome, string) result;
        span : Obs.Span.t option;
      }

  type t = {
    krun :
      ?on_event:(event -> unit) -> kop array -> (outcome, string) result array;
    kclose : unit -> unit;
    kkeys_touched : unit -> int;
  }

  (* Role indices: the writer, then reader lanes 0 .. readers-1; a reply
     from any other sender belongs to another client. *)
  let writer = -1

  let stranger = -2

  let connect ?session ?metrics ?(opts = default_opts) ?now_us
      ?(max_inflight = 16) ?(reader = 1) ?(readers = 1) ?(coalesce = 1)
      ~protocol ~map endpoints =
    Endpoint.ignore_sigpipe ();
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
    if readers < 1 then
      invalid_arg (Printf.sprintf "Keyed.connect: readers = %d" readers);
    let window = max 1 max_inflight in
    let now_f = now_s in
    let now_us =
      match now_us with
      | Some f -> f
      | None ->
          let t0 = now_f () in
          fun () -> int_of_float ((now_f () -. t0) *. 1e6)
    in
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
    let lane_names =
      Array.init readers (fun i -> "r" ^ string_of_int (reader + i))
    in
    let session = Option.value session ~default:lane_names.(0) in
    let sender_of lane = if lane = writer then "w" else lane_names.(lane) in
    let reader_id lane = if lane = writer then 0 else reader + lane in
    let kind_of lane =
      if lane = writer then Obs.Span.Write
      else Obs.Span.Read { reader = reader_id lane }
    in
    (* Spans are numbered in start order and leave the engine with their
       op's [Respond]: the engine keeps none once an op has responded. *)
    let span_ids = ref 0 in
    let start_span lane =
      let id = !span_ids in
      incr span_ids;
      Obs.Span.create ~id (kind_of lane) ~proc:(sender_of lane)
        ~now:(now_us ()) ~trace_pos:0
    in
    (* The lane an echoed sender ("w" or "r<j>") names: one call per
       reply frame. *)
    let lane_of_sender sender =
      match Sim.Proc_id.of_string sender with
      | Some Sim.Proc_id.Writer -> writer
      | Some (Sim.Proc_id.Reader j) when j >= reader && j < reader + readers ->
          j - reader
      | Some (Sim.Proc_id.Reader _ | Sim.Proc_id.Obj _) | None -> stranger
    in
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
              krd =
                Array.init readers (fun i -> P.reader_init ~cfg ~j:(reader + i));
              krst = Array.make readers Sidle;
              kwr = P.writer_init ~cfg;
              kwst = Sidle;
              krq = Queue.create ();
              kwq = Queue.create ();
            }
          in
          Hashtbl.replace regs key r;
          r
    in
    let get_st r lane = if lane = writer then r.kwst else r.krst.(lane) in
    let set_st r lane st =
      if lane = writer then r.kwst <- st else r.krst.(lane) <- st
    in
    let queue_of r lane = if lane = writer then r.kwq else r.krq in
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
       wiped) server: every reader automaton clears its timestamp cache,
       so no suffix request trusts state the server no longer has.  Idle
       automata clear immediately; in-flight ones defer to their next
       start (see Regular_reader.on_reconnect). *)
    let resync_all () =
      count "op.cache_resyncs";
      Hashtbl.iter
        (fun _ r ->
          Array.iteri (fun i rd -> r.krd.(i) <- P.reader_on_reconnect rd) r.krd)
        regs
    in
    let ensure_conns now =
      Array.iter
        (fun c ->
          if c.fd = None && now >= c.next_attempt then
            try_connect ~count ~codec ~proto_name:P.name ~proc:session
              ~on_reconnect:resync_all c)
        conns
    in
    let connected () =
      Array.to_list conns
      |> List.filter_map (fun c ->
             match c.fd with Some _ -> Some c.index | None -> None)
    in
    (* [rounds] is the automaton-reported count (outcome.rounds), not
       span.rounds: a protocol that broadcasts Read2 next to a round-1
       decision (Fig. 6's plain regular reader) records 2 initiated
       rounds for a 1-round read. *)
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
      (* (key, role) pairs currently in flight — bounded by the window,
         so timers never scan the whole key table — plus roles freed by a
         completion, whose queued successor starts from the pump loop
         (never from inside an automaton event iteration). *)
      let actives : (int * int, (P.msg, P.reader, P.writer) kreg) Hashtbl.t =
        Hashtbl.create 64
      in
      let freed : ((P.msg, P.reader, P.writer) kreg * int) Queue.t =
        Queue.create ()
      in
      let invoke op r lane ~joined =
        emit
          (Invoke
             {
               op;
               key = r.kkey;
               write = lane = writer;
               reader = reader_id lane;
               joined;
               at_us = now_us ();
             })
      in
      let respond op r lane ~joined ~at ~span outcome =
        results.(op) <- outcome;
        emit
          (Respond
             {
               op;
               key = r.kkey;
               write = lane = writer;
               reader = reader_id lane;
               joined;
               at_us = at;
               outcome;
               span;
             });
        incr completed
      in
      let finish_op r lane (a : _ active) outcome =
        respond a.aop r lane ~joined:false ~at:(now_us ())
          ~span:(if a.aowns then Some a.aspan else None)
          outcome;
        Hashtbl.remove actives (r.kkey, lane);
        Queue.add (r, lane) freed;
        decr in_flight
      in
      (* Fan a completed lead read's value out to every read that joined
         its round: each joiner is a logical op with its own span and
         per-op/per-shard metrics (reporting the lead's decision round
         count), but it ran no network round, so [in_flight] is
         untouched. *)
      let fanout_ok r lane (a : _ active) ~rounds ~value =
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
                op_metrics ~kind:(kind_of lane) span ~rounds now;
                shard_read_metric r ~rounds;
                observe_width w;
                respond op r lane ~joined:true ~at:now ~span:(Some span)
                  (Ok
                     {
                       value = Some value;
                       rounds;
                       retransmits = 0;
                       latency_us = now - span.Obs.Span.started_at;
                     }))
              b
      in
      (* A lead that times out fails its whole batch: the joiners'
         evidence was the lead's round.  Their spans stay open, like any
         failed op's. *)
      let fanout_err r lane (a : _ active) err =
        match a.abatch with
        | None -> ()
        | Some b ->
            Coalesce.iter_joiners
              (fun (op, span) ->
                respond op r lane ~joined:true ~at:(now_us ()) ~span:(Some span)
                  (Error err))
              b
      in
      (* The role's automaton decided.  An active op completes; a parked
         one stashes its outcome for the next op on the role to adopt. *)
      let complete r lane ~value ~rounds =
        let finish span =
          if lane <> writer then shard_read_metric r ~rounds;
          let now = now_us () in
          Obs.Span.finish span ~now ~rounds
            ?result:(Option.map Core.Value.to_string value)
            ~trace_pos:0 ();
          op_metrics ~kind:(kind_of lane) span ~rounds now;
          now - span.Obs.Span.started_at
        in
        match get_st r lane with
        | Sactive a ->
            let latency_us = finish a.aspan in
            set_st r lane Sidle;
            finish_op r lane a
              (Ok { value; rounds; retransmits = a.aretr; latency_us });
            Option.iter (fun value -> fanout_ok r lane a ~rounds ~value) value
        | Sparked p ->
            let latency_us = finish p.pspan in
            set_st r lane (Sdone { value; rounds; retransmits = 0; latency_us })
        | Sidle | Sdone _ -> ()
      in
      let feed_reg r lane ~obj m =
        let evs =
          if lane = writer then begin
            let w, evs = P.writer_on_msg r.kwr ~obj m in
            r.kwr <- w;
            evs
          end
          else begin
            let rd, evs = P.reader_on_msg r.krd.(lane) ~obj m in
            r.krd.(lane) <- rd;
            evs
          end
        in
        List.iter
          (function
            | Core.Events.Broadcast m' -> (
                match get_st r lane with
                | Sactive a ->
                    Obs.Span.transition a.aspan ~now:(now_us ());
                    a.acur <- m';
                    a.adeadline <- now_f () +. opts.deadline;
                    a.abackoff_until <- 0.;
                    send_fresh r ~sender:(sender_of lane) a.afan m'
                | Sparked p -> p.pcur <- m'
                | Sidle | Sdone _ -> ())
            | Core.Events.Read_done { value; rounds } ->
                if lane <> writer then
                  complete r lane ~value:(Some value) ~rounds
            | Core.Events.Write_done { rounds } ->
                if lane = writer then complete r lane ~value:None ~rounds)
          evs
      in
      (* Marks [c] as having answered the round's current message; a
         late reply to an earlier one (the round before, or the previous
         op on this key and role) does not count. *)
      let note_answer r (a : _ active) c m =
        let f = a.afan in
        match rank_of r c with
        | Some rank
          when f.sent.(rank)
               && (not f.answered.(rank))
               && Codec.answers codec ~request:a.acur m ->
            f.answered.(rank) <- true;
            f.nans <- f.nans + 1;
            true
        | Some _ | None -> false
      in
      (* After a counted answer, if the automaton neither decided nor
         started a new round: widen once everyone contacted has answered
         (undecided), or arm the hedge once all but one have — the last
         one gets as long again as the round has taken so far. *)
      let after_answer r lane (a : _ active) =
        match get_st r lane with
        | Sactive a' when a' == a ->
            let f = a.afan in
            if f.nans = f.nsent then
              widen r ~sender:(sender_of lane) f a.acur "op.expand.undecided"
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
          (fun (_, lane) r ->
            match get_st r lane with
            | Sactive a -> (
                let f = a.afan in
                match rank_of r c with
                | Some rank when f.sent.(rank) && not f.answered.(rank) ->
                    f.sent.(rank) <- false;
                    f.nsent <- f.nsent - 1;
                    widen r ~sender:(sender_of lane) f a.acur "op.expand.lost"
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
            match lane_of_sender sender with
            | lane when lane = stranger -> () (* another client's: stale *)
            | lane -> (
                match get_st r lane with
                | Sactive a ->
                    meter "delivered" m;
                    Obs.Span.contact a.aspan ~obj:c.index;
                    let counted = note_answer r a c m in
                    feed_reg r lane ~obj:c.index m;
                    if counted then after_answer r lane a
                | Sparked p ->
                    meter "delivered" m;
                    Obs.Span.contact p.pspan ~obj:c.index;
                    feed_reg r lane ~obj:c.index m
                | Sidle | Sdone _ -> () (* stale ack between operations *)))
      in
      let on_frame c = function
        | Codec.Hello_ack { proto; obj } ->
            if proto <> P.name || obj <> c.index then drop c
        | Codec.Err _ ->
            count "net.client.peer_errors";
            drop c
        | Codec.Hello _ -> drop c
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
      (* A coalesced read occupies no role: it is a (span, result cell)
         hung off the lead's batch, costing no automaton state and no
         window slot. *)
      let join_read idx r lane b =
        invoke idx r lane ~joined:true;
        Coalesce.join b (idx, start_span lane);
        count "op.coalesced_reads"
      in
      let activate idx r lane ~cur ~span ~owns ~batch =
        let a =
          {
            aop = idx;
            acur = cur;
            afan = new_fanout r;
            aspan = span;
            aowns = owns;
            adeadline = now_f () +. opts.deadline;
            abackoff_until = 0.;
            aattempt = 0;
            aretr = 0;
            abatch = batch;
          }
        in
        set_st r lane (Sactive a);
        Hashtbl.replace actives (r.kkey, lane) r;
        incr in_flight;
        a
      in
      (* [start_now] requires the role NOT be [Sactive]; [start_next]
         pops the role's queue once it is free.  A synchronous
         completion (adopted [Sdone], start error) recurses into
         [start_next] — safe here because these only run from the pump
         loop, never mid automaton-event iteration. *)
      let rec start_now idx r lane =
        invoke idx r lane ~joined:false;
        match get_st r lane with
        | Sdone out ->
            set_st r lane Sidle;
            respond idx r lane ~joined:false ~at:(now_us ()) ~span:None
              (Ok out);
            start_next r lane
        | Sparked p ->
            (* Resumed round: its round-1 evidence gathering started
               before this op was invoked, so no batch may attach — a
               joiner could be returned evidence older than its invoke,
               which is exactly what regularity forbids. *)
            let a =
              activate idx r lane ~cur:p.pcur ~span:p.pspan ~owns:false
                ~batch:None
            in
            send_all r ~sender:(sender_of lane) a.afan p.pcur
        | Sidle -> (
            let started =
              if lane = writer then
                match ops.(idx) with
                | Write { value; _ } -> (
                    match P.writer_start r.kwr value with
                    | Ok (w, m) ->
                        r.kwr <- w;
                        Ok m
                    | Error e -> Error e)
                | Read _ -> assert false
              else
                match P.reader_start r.krd.(lane) with
                | Ok (rd, m) ->
                    r.krd.(lane) <- rd;
                    Ok m
                | Error e -> Error e
            in
            match started with
            | Error e ->
                respond idx r lane ~joined:false ~at:(now_us ()) ~span:None
                  (Error e);
                start_next r lane
            | Ok m -> (
                let batch =
                  if lane = writer || cap <= 1 then None
                  else Some (Coalesce.create ~cap)
                in
                let a =
                  activate idx r lane ~cur:m ~span:(start_span lane) ~owns:true
                    ~batch
                in
                send_fresh r ~sender:(sender_of lane) a.afan m;
                (* Piggyback: reads already queued behind this key ride
                   the fresh round — they were invoked before its
                   broadcast was even assembled, so joining preserves
                   both regularity and per-key program order. *)
                match batch with
                | None -> ()
                | Some b ->
                    while (not (Queue.is_empty r.krq)) && Coalesce.can_join b do
                      join_read (Queue.pop r.krq) r lane b
                    done))
        | Sactive _ -> assert false
      and start_next r lane =
        match get_st r lane with
        | Sactive _ -> ()
        | Sidle | Sparked _ | Sdone _ ->
            let q = queue_of r lane in
            if not (Queue.is_empty q) then start_now (Queue.pop q) r lane
      in
      (* A lane of [r] whose fresh read round is still being assembled. *)
      let open_batch r =
        let rec go lane =
          if lane >= readers then None
          else
            match r.krst.(lane) with
            | Sactive { abatch = Some b; _ } when Coalesce.can_join b ->
                Some (lane, b)
            | Sactive _ | Sidle | Sparked _ | Sdone _ -> go (lane + 1)
        in
        go 0
      in
      let free_lane r =
        let rec go lane =
          if lane >= readers then None
          else
            match r.krst.(lane) with
            | Sactive _ -> go (lane + 1)
            | Sidle | Sparked _ | Sdone _ -> Some lane
        in
        go 0
      in
      (* Admission: a read joins its key's in-assembly round if one is
         open and nothing is queued ahead of it (program order), else
         takes a free lane; a write takes the writer if it is free; and
         anything else queues. *)
      let admit idx =
        let op = ops.(idx) in
        let r = reg_for (op_key op) in
        if op_is_write op then
          match r.kwst with
          | Sidle | Sparked _ | Sdone _ when Queue.is_empty r.kwq ->
              start_now idx r writer
          | Sidle | Sparked _ | Sdone _ | Sactive _ -> Queue.add idx r.kwq
        else if not (Queue.is_empty r.krq) then Queue.add idx r.krq
        else
          match open_batch r with
          | Some (lane, b) -> join_read idx r lane b
          | None -> (
              match free_lane r with
              | Some lane -> start_now idx r lane
              | None -> Queue.add idx r.krq)
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
        | Some r when Queue.is_empty r.krq -> (
            match open_batch r with
            | Some (lane, b) ->
                join_read !next_op r lane b;
                incr next_op;
                true
            | None -> false)
        | Some _ | None -> false
      in
      (* The join window ends when the round-1 broadcast leaves the
         process: called right after [flush_all], so later reads chain
         onto the NEXT round instead of adopting evidence gathered
         before they were invoked. *)
      let close_batches () =
        Hashtbl.iter
          (fun (_, lane) r ->
            if lane <> writer then
              match r.krst.(lane) with
              | Sactive { abatch = Some b; _ } -> Coalesce.close b
              | Sactive _ | Sidle | Sparked _ | Sdone _ -> ())
          actives
      in
      let process_timers now =
        let acts = Hashtbl.fold (fun k r acc -> (k, r) :: acc) actives [] in
        List.iter
          (fun ((_, lane), r) ->
            match get_st r lane with
            | Sactive a ->
                let sender = sender_of lane in
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
                    let what = if lane = writer then "write" else "read" in
                    count ("op." ^ what ^ ".timeout");
                    let err =
                      Printf.sprintf
                        "%s of key %d by %s timed out after %d attempts \
                         (%.1fs deadline, connected objects: %s)"
                        what r.kkey sender (a.aattempt + 1) opts.deadline
                        (match connected () with
                        | [] -> "none"
                        | l -> String.concat "," (List.map string_of_int l))
                    in
                    set_st r lane (Sparked { pcur = a.acur; pspan = a.aspan });
                    finish_op r lane a (Error err);
                    fanout_err r lane a err
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
          (fun (_, lane) r ->
            match get_st r lane with
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
          (* connect before starting ops: a round only reaches endpoints
             that already have a live fd *)
          ensure_conns (now_f ());
          (* freed roles first: their queued successors preserve per-key
             program order ahead of fresh admissions *)
          while not (Queue.is_empty freed) do
            let r, lane = Queue.pop freed in
            start_next r lane
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
      kclose = close_all;
      kkeys_touched = (fun () -> Hashtbl.length regs);
    }

  let run_ops ?on_event t ops = t.krun ?on_event ops

  let keys_touched t = t.kkeys_touched ()

  let close t = t.kclose ()
end
