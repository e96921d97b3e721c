include Driver_ops

type timing = { deadline : float; retries : int; backoff : float }

(* Seconds to the microseconds the host's clock reads. *)
let us s = int_of_float (Float.round (s *. 1e6))

(* Retransmit backoff: exponential in the attempt but clamped — at a
   50 ms base, attempt 20 would otherwise land ~14.6 hours out, so one
   long outage could wedge an operation far past its deadline budget. *)
let retry_backoff tm ~attempt =
  us (Float.min 1.0 (tm.backoff *. (2. ** float_of_int attempt)))

(* An unarmed timer: no clock reaches it. *)
let never = max_int

type 'm host = {
  send : slot:int -> key:int -> sender:string -> 'm -> unit;
  connected : int -> bool;
  unanswered : int -> int;
  answers : request:'m -> 'm -> bool;
  start_span : Obs.Span.kind -> proc:string -> now:int -> Obs.Span.t;
  trace_pos : unit -> int;
}

type ('m, 'r, 'w) protocol =
  (module Protocol_intf.S
     with type msg = 'm
      and type reader = 'r
      and type writer = 'w)

(* A round in flight.  Who its current message went to is kept by shard
   rank (DESIGN §17): [sent] members were sent the message and may still
   answer it; [answered] ones did, with a reply to that message. *)
type 'm active = {
  aop : int;  (* the op's number *)
  mutable acur : 'm;  (* current round's broadcast *)
  mutable sent : bool array;
  answered : bool array;
  mutable nsent : int;
  mutable nans : int;
  mutable started : int;  (* when the current message first went out *)
  mutable hedge_at : int;  (* [never] = not armed *)
  aspan : Obs.Span.t;
  aowns : bool;
      (* the op started [aspan], so its [Respond] hands the span out; a
         resumed round's span went out with the op that started it *)
  mutable due : int;  (* the deadline, or the end of a backoff *)
  mutable backing_off : bool;
  mutable aattempt : int;  (* deadline retransmits so far *)
  abatch : (int * Obs.Span.t) Coalesce.t option;
      (* READ coalescing: (op, span) per read that joined this round
         while its round-1 broadcast was still being assembled.  [None]
         for writes, for resumed parked rounds (their evidence gathering
         already started — a join would not be regular), and when
         coalescing is off.  Closed the instant the broadcast is
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
  krq : int Queue.t;  (* queued read ops, program order *)
  kwq : int Queue.t;  (* queued write ops, program order *)
}

(* Counts a span into the op.<kind>.* family; the simulator's post-run
   op metrics use it too. *)
let op_meters reg kind ~latency:(suffix, bounds) =
  let k = "op." ^ kind in
  let c name = Obs.Metrics.counter reg (k ^ name) in
  let h name bounds = Obs.Metrics.histogram reg (k ^ name) ~bounds in
  let completed = c ".completed" and unfinished = c ".open" in
  let rounds = h ".rounds" Obs.Metrics.round_bounds in
  let latency = h suffix bounds in
  let replies = h ".replies" Obs.Metrics.count_bounds in
  let contacted = h ".contacted" Obs.Metrics.count_bounds in
  fun (s : Obs.Span.t) ->
    match s.completed_at with
    | None -> Obs.Metrics.counter_incr unfinished
    | Some at ->
        let observe h v = Obs.Metrics.histogram_observe_int h v in
        Obs.Metrics.counter_incr completed;
        observe rounds s.rounds;
        observe latency (at - s.started_at);
        observe replies s.replies;
        observe contacted (List.length s.rev_contacted)

(* What the driver meters per op or per reply, made once at create
   (DESIGN §8); rare events (timeouts, widenings, resyncs, retransmits)
   stay string-keyed on [reg]. *)
type 'm meters = {
  reg : Obs.Metrics.t;
  wire : 'm Obs.Metrics.wire;
  reads : Obs.Span.t -> unit;
  writes : Obs.Span.t -> unit;
  fast_reads : Obs.Metrics.counter;
  fallback_rounds : Obs.Metrics.counter;
  coalesced_reads : Obs.Metrics.counter;
  coalesce_width : Obs.Metrics.histogram;
  (* per shard: E19's evidence that the §5.1 one-round path survives
     sharding *)
  shard_reads : Obs.Metrics.counter array;
  shard_fast_reads : Obs.Metrics.counter array;
}

let meters reg map classify =
  let c = Obs.Metrics.counter reg in
  let per_shard what =
    Array.init (Shard.Map.shards map) (fun i ->
        c (Printf.sprintf "shard.%d.%s" i what))
  in
  let latency = (".latency_us", Obs.Metrics.wallclock_bounds) in
  {
    reg;
    wire = Obs.Metrics.wire reg classify;
    reads = op_meters reg "read" ~latency;
    writes = op_meters reg "write" ~latency;
    fast_reads = c "op.fast_reads";
    fallback_rounds = c "op.fallback_rounds";
    coalesced_reads = c "op.coalesced_reads";
    coalesce_width =
      Obs.Metrics.histogram reg "op.coalesce_width"
        ~bounds:Obs.Metrics.batch_bounds;
    shard_reads = per_shard "reads";
    shard_fast_reads = per_shard "fast_reads";
  }

type ('m, 'r, 'w) t = {
  proto : ('m, 'r, 'w) protocol;
  host : 'm host;
  map : Shard.Map.t;
  meters : 'm meters;
  timing : timing option;
  window : int;
  fanout : int;
  cap : int;  (* coalescing width, 1 = off *)
  reader : int;
  readers : int;
  lane_names : string array;
  (* key -> per-key automata + in-flight state, lazily materialized *)
  regs : (int, ('m, 'r, 'w) kreg) Hashtbl.t;
  (* (key, role) pairs in flight — bounded by the window, so timers never
     scan the whole key table — plus roles freed by a completion, whose
     queued successor starts from [pump] (never from inside an automaton
     event iteration). *)
  actives : (int * int, ('m, 'r, 'w) kreg) Hashtbl.t;
  freed : (('m, 'r, 'w) kreg * int) Queue.t;
  mutable ops : kop array;
  mutable n : int;  (* ops submitted; [ops] may be longer *)
  mutable next_op : int;  (* the first op not yet admitted *)
  mutable completed : int;
  mutable in_flight : int;
  mutable on_event : event -> unit;
}

(* Role indices: the writer, then reader lanes 0 .. readers-1. *)
let writer = -1

let create (type m r w) ?(metrics = Obs.Metrics.off) ?timing
    ?(window = max_int) ?(coalesce = 1) (proto : (m, r, w) protocol) ~host ~map
    ~fanout ~reader ~readers =
  let (module P) = proto in
  {
    proto;
    host;
    map;
    meters = meters metrics map P.msg_class;
    timing;
    window = max 1 window;
    fanout;
    cap = max 1 coalesce;
    reader;
    readers;
    lane_names = Array.init readers (fun i -> "r" ^ string_of_int (reader + i));
    regs = Hashtbl.create (min 1024 (Shard.Map.keys map));
    actives = Hashtbl.create 64;
    freed = Queue.create ();
    ops = [||];
    n = 0;
    next_op = 0;
    completed = 0;
    in_flight = 0;
    on_event = ignore;
  }

let load d ~on_event ops =
  d.ops <- ops;
  d.n <- Array.length ops;
  d.next_op <- 0;
  d.completed <- 0;
  d.on_event <- on_event

let submit d op =
  if d.n = Array.length d.ops then begin
    let bigger = Array.make (max 8 (2 * d.n)) op in
    Array.blit d.ops 0 bigger 0 d.n;
    d.ops <- bigger
  end;
  d.ops.(d.n) <- op;
  d.n <- d.n + 1

let submitted d = d.n

let op d i = d.ops.(i)

let finished d = d.completed >= d.n

let count d name = Obs.Metrics.incr d.meters.reg name

let sender_of d lane = if lane = writer then "w" else d.lane_names.(lane)

let reader_id d lane = if lane = writer then 0 else d.reader + lane

let start_span d lane ~now =
  let kind =
    if lane = writer then Obs.Span.Write
    else Obs.Span.Read { reader = reader_id d lane }
  in
  d.host.start_span kind ~proc:(sender_of d lane) ~now

let deadline_after d now =
  match d.timing with None -> never | Some tm -> now + us tm.deadline

let reg_for (type m r w) (d : (m, r, w) t) key =
  match Hashtbl.find_opt d.regs key with
  | Some r -> r
  | None ->
      let (module P) = d.proto in
      let cfg = Shard.Map.cfg d.map in
      let shard = Shard.Map.shard_of_key d.map key in
      let r =
        {
          kkey = key;
          kshard = shard;
          kconns = Shard.Map.members d.map ~shard;
          krd =
            Array.init d.readers (fun i ->
                P.reader_init ~cfg ~j:(d.reader + i));
          krst = Array.make d.readers Sidle;
          kwr = P.writer_init ~cfg;
          kwst = Sidle;
          krq = Queue.create ();
          kwq = Queue.create ();
        }
      in
      Hashtbl.replace d.regs key r;
      r

let get_st r lane = if lane = writer then r.kwst else r.krst.(lane)

let set_st r lane st =
  if lane = writer then r.kwst <- st else r.krst.(lane) <- st

let queue_of r lane = if lane = writer then r.kwq else r.krq

(* A fresh round: its message goes to the [fanout] members [pick]
   chooses, in rank order, and who answered restarts for it. *)
let send_fresh d r ~lane a ~now =
  a.sent <-
    pick ~members:r.kconns ~connected:d.host.connected
      ~unanswered:d.host.unanswered ~q:d.fanout;
  Array.fill a.answered 0 (Array.length a.answered) false;
  a.nsent <- 0;
  a.nans <- 0;
  a.started <- now;
  a.hedge_at <- never;
  let sender = sender_of d lane in
  for rank = 0 to Array.length r.kconns - 1 do
    if a.sent.(rank) then begin
      d.host.send ~slot:r.kconns.(rank) ~key:r.kkey ~sender a.acur;
      a.nsent <- a.nsent + 1
    end
  done

(* Deadline retransmits and resumed rounds go to every member. *)
let send_all d r ~lane a =
  let sender = sender_of d lane in
  Array.iter
    (fun slot -> d.host.send ~slot ~key:r.kkey ~sender a.acur)
    r.kconns;
  Array.fill a.sent 0 (Array.length a.sent) true;
  a.nsent <- Array.length a.sent;
  a.hedge_at <- never

(* Send the current message to the connected members it skipped; [why]
   names the trigger's counter. *)
let widen d r ~lane a why =
  let before = a.nsent in
  let sender = sender_of d lane in
  for rank = 0 to Array.length r.kconns - 1 do
    let slot = r.kconns.(rank) in
    if (not a.sent.(rank)) && d.host.connected slot then begin
      d.host.send ~slot ~key:r.kkey ~sender a.acur;
      a.sent.(rank) <- true;
      a.nsent <- a.nsent + 1
    end
  done;
  a.hedge_at <- never;
  if a.nsent > before then count d why

let rank_of d r slot = Shard.Map.rank_of_slot d.map ~shard:r.kshard ~slot

(* Idle automata clear their timestamp caches now, in-flight ones at
   their next start (see Regular_reader.on_reconnect). *)
let reconnected (type m r w) (d : (m, r, w) t) =
  let (module P) = d.proto in
  count d "op.cache_resyncs";
  Hashtbl.iter
    (fun _ r ->
      Array.iteri (fun i rd -> r.krd.(i) <- P.reader_on_reconnect rd) r.krd)
    d.regs

(* [rounds] is the automaton-reported count (outcome.rounds), not
   span.rounds: a protocol that broadcasts Read2 next to a round-1
   decision (Fig. 6's plain regular reader) records 2 initiated rounds
   for a 1-round read. *)
let op_metrics d r lane span ~rounds =
  let ms = d.meters in
  if Obs.Metrics.enabled ms.reg then begin
    (if lane = writer then ms.writes else ms.reads) span;
    if lane <> writer then begin
      let fast = rounds <= 1 in
      Obs.Metrics.counter_incr
        (if fast then ms.fast_reads else ms.fallback_rounds);
      Obs.Metrics.counter_incr ms.shard_reads.(r.kshard);
      if fast then Obs.Metrics.counter_incr ms.shard_fast_reads.(r.kshard)
    end
  end

(* Batch width is observed once per member (the histogram weights by
   op, not by round); only recorded when coalescing is on. *)
let observe_width d w =
  Obs.Metrics.histogram_observe_int d.meters.coalesce_width w

let invoke d op r lane ~joined ~now =
  let write = lane = writer and reader = reader_id d lane in
  d.on_event (Invoke { op; key = r.kkey; write; reader; joined; at_us = now })

let respond d op r lane ~joined ~at ~span outcome =
  let write = lane = writer and reader = reader_id d lane in
  d.on_event
    (Respond
       { op; key = r.kkey; write; reader; joined; at_us = at; outcome; span });
  d.completed <- d.completed + 1

let finish_op d r lane (a : _ active) outcome ~now =
  respond d a.aop r lane ~joined:false ~at:now
    ~span:(if a.aowns then Some a.aspan else None)
    outcome;
  Hashtbl.remove d.actives (r.kkey, lane);
  Queue.add (r, lane) d.freed;
  d.in_flight <- d.in_flight - 1

(* An op's automaton decided: its span closes and its per-op and
   per-shard metrics count.  Returns the op's latency. *)
let close_span d r lane span ~value ~rounds ~now =
  Obs.Span.finish span ~now ~rounds
    ?result:(Option.map Value.to_string value)
    ~trace_pos:(d.host.trace_pos ()) ();
  op_metrics d r lane span ~rounds;
  now - span.Obs.Span.started_at

(* Every read that joined [a]'s round responds with the round's outcome:
   a logical op with its own span and per-op and per-shard metrics, but
   no round of its own, so [in_flight] is untouched.  A lead that timed
   out fails its whole batch (the joiners' evidence was its round), and
   their spans stay open, like any failed op's. *)
let respond_joiners d r lane (a : _ active) outcome ~now =
  match a.abatch with
  | None -> ()
  | Some b ->
      let w = Coalesce.width b in
      if Result.is_ok outcome then observe_width d w;
      Coalesce.iter_joiners
        (fun (op, span) ->
          let outcome =
            match outcome with
            | Error _ -> outcome
            | Ok o ->
                let latency_us =
                  close_span d r lane span ~value:o.value ~rounds:o.rounds ~now
                in
                observe_width d w;
                Ok { o with retransmits = 0; latency_us }
          in
          respond d op r lane ~joined:true ~at:now ~span:(Some span) outcome)
        b

(* The role's automaton decided.  An active op completes; a parked one
   stashes its outcome for the next op on the role to adopt. *)
let complete d r lane ~value ~rounds ~now =
  match get_st r lane with
  | Sactive a ->
      let latency_us = close_span d r lane a.aspan ~value ~rounds ~now in
      set_st r lane Sidle;
      let outcome =
        Ok { value; rounds; retransmits = a.aattempt; latency_us }
      in
      finish_op d r lane a outcome ~now;
      respond_joiners d r lane a outcome ~now
  | Sparked p ->
      let latency_us = close_span d r lane p.pspan ~value ~rounds ~now in
      set_st r lane (Sdone { value; rounds; retransmits = 0; latency_us })
  | Sidle | Sdone _ -> ()

let feed_reg (type m r w) (d : (m, r, w) t) r lane ~obj m ~now =
  let (module P) = d.proto in
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
      | Events.Broadcast m' -> (
          match get_st r lane with
          | Sactive a ->
              Obs.Span.transition a.aspan ~now;
              a.acur <- m';
              a.due <- deadline_after d now;
              a.backing_off <- false;
              send_fresh d r ~lane a ~now
          | Sparked p -> p.pcur <- m'
          | Sidle | Sdone _ -> ())
      | Events.Read_done { value; rounds } ->
          if lane <> writer then
            complete d r lane ~value:(Some value) ~rounds ~now
      | Events.Write_done { rounds } ->
          if lane = writer then complete d r lane ~value:None ~rounds ~now)
    evs

(* Marks [slot] as having answered the round's current message; a late
   reply to an earlier one (the round before, or the previous op on this
   key and role) does not count. *)
let note_answer d r (a : _ active) ~slot m =
  match rank_of d r slot with
  | Some rank
    when a.sent.(rank)
         && (not a.answered.(rank))
         && d.host.answers ~request:a.acur m ->
      a.answered.(rank) <- true;
      a.nans <- a.nans + 1;
      true
  | Some _ | None -> false

(* After a counted answer, if the automaton neither decided nor started
   a new round: widen once everyone contacted has answered (undecided),
   or arm the hedge once all but one have — the last one gets as long
   again as the round has taken so far. *)
let after_answer d r lane (a : _ active) ~now =
  match get_st r lane with
  | Sactive a' when a' == a ->
      if a.nans = a.nsent then widen d r ~lane a "op.expand.undecided"
      else if
        a.nans >= 1
        && a.nans = a.nsent - 1
        && a.hedge_at = never
        && a.nsent < Array.length a.sent
      then a.hedge_at <- now + (now - a.started)
  | Sactive _ | Sidle | Sparked _ | Sdone _ -> ()

let deliver d ~now ~slot ~key ~lane m =
  match Hashtbl.find_opt d.regs key with
  | None -> () (* reply for a key this client never touched: stale *)
  | Some r -> (
      let obj = slot + 1 in
      match get_st r lane with
      | Sactive a ->
          Obs.Metrics.wire_incr d.meters.wire Delivered m;
          Obs.Span.contact a.aspan ~obj;
          let counted = note_answer d r a ~slot m in
          feed_reg d r lane ~obj m ~now;
          if counted then after_answer d r lane a ~now
      | Sparked p ->
          Obs.Metrics.wire_incr d.meters.wire Delivered m;
          Obs.Span.contact p.pspan ~obj;
          feed_reg d r lane ~obj m ~now
      | Sidle | Sdone _ -> () (* stale ack between operations *))

(* A contacted member that had not answered is gone: its request is
   lost, so it no longer counts as contacted, and the round widens to
   the members it skipped. *)
let lost d ~slot =
  Hashtbl.iter
    (fun (_, lane) r ->
      match get_st r lane with
      | Sactive a -> (
          match rank_of d r slot with
          | Some rank when a.sent.(rank) && not a.answered.(rank) ->
              a.sent.(rank) <- false;
              a.nsent <- a.nsent - 1;
              widen d r ~lane a "op.expand.lost"
          | Some _ | None -> ())
      | Sidle | Sparked _ | Sdone _ -> ())
    d.actives

(* A coalesced read occupies no role: it is a (span, result cell) hung
   off the lead's batch, costing no automaton state and no window
   slot. *)
let join_read d idx r lane b ~now =
  invoke d idx r lane ~joined:true ~now;
  Coalesce.join b (idx, start_span d lane ~now);
  Obs.Metrics.counter_incr d.meters.coalesced_reads

let activate d idx r lane ~cur ~span ~owns ~batch ~now =
  let a =
    {
      aop = idx;
      acur = cur;
      sent = Array.make (Array.length r.kconns) false;
      answered = Array.make (Array.length r.kconns) false;
      nsent = 0;
      nans = 0;
      started = 0;
      hedge_at = never;
      aspan = span;
      aowns = owns;
      due = deadline_after d now;
      backing_off = false;
      aattempt = 0;
      abatch = batch;
    }
  in
  set_st r lane (Sactive a);
  Hashtbl.replace d.actives (r.kkey, lane) r;
  d.in_flight <- d.in_flight + 1;
  a

(* The role's automaton starts op [idx]: its round-1 message, or why it
   refused. *)
let start_automaton (type m r w) (d : (m, r, w) t) idx r lane =
  let (module P) = d.proto in
  if lane = writer then
    match d.ops.(idx) with
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

(* [start_now] requires the role NOT be [Sactive]; [start_next] pops the
   role's queue once it is free.  A synchronous completion (adopted
   [Sdone], start error) recurses into [start_next] — safe here because
   these only run from [pump], never mid automaton-event iteration. *)
let rec start_now d idx r lane ~now =
  invoke d idx r lane ~joined:false ~now;
  match get_st r lane with
  | Sdone out ->
      set_st r lane Sidle;
      respond d idx r lane ~joined:false ~at:now ~span:None (Ok out);
      start_next d r lane ~now
  | Sparked p ->
      (* Resumed round: its round-1 evidence gathering started before
         this op was invoked, so no batch may attach — a joiner could be
         returned evidence older than its invoke, which is exactly what
         regularity forbids. *)
      let a =
        activate d idx r lane ~cur:p.pcur ~span:p.pspan ~owns:false
          ~batch:None ~now
      in
      send_all d r ~lane a
  | Sidle -> (
      match start_automaton d idx r lane with
      | Error e ->
          respond d idx r lane ~joined:false ~at:now ~span:None (Error e);
          start_next d r lane ~now
      | Ok m -> (
          let batch =
            if lane = writer || d.cap <= 1 then None
            else Some (Coalesce.create ~cap:d.cap)
          in
          let span = start_span d lane ~now in
          let a = activate d idx r lane ~cur:m ~span ~owns:true ~batch ~now in
          send_fresh d r ~lane a ~now;
          (* Piggyback: reads already queued behind this key ride the
             fresh round — they were invoked before its broadcast was
             even assembled, so joining preserves both regularity and
             per-key program order. *)
          match batch with
          | None -> ()
          | Some b ->
              while (not (Queue.is_empty r.krq)) && Coalesce.can_join b do
                join_read d (Queue.pop r.krq) r lane b ~now
              done))
  | Sactive _ -> assert false

and start_next d r lane ~now =
  match get_st r lane with
  | Sactive _ -> ()
  | Sidle | Sparked _ | Sdone _ ->
      let q = queue_of r lane in
      if not (Queue.is_empty q) then start_now d (Queue.pop q) r lane ~now

(* A lane of [r] whose fresh read round is still being assembled. *)
let open_batch d r =
  let rec go lane =
    if lane >= d.readers then None
    else
      match r.krst.(lane) with
      | Sactive { abatch = Some b; _ } when Coalesce.can_join b ->
          Some (lane, b)
      | Sactive _ | Sidle | Sparked _ | Sdone _ -> go (lane + 1)
  in
  go 0

let free_lane d r =
  let rec go lane =
    if lane >= d.readers then None
    else
      match r.krst.(lane) with
      | Sactive _ -> go (lane + 1)
      | Sidle | Sparked _ | Sdone _ -> Some lane
  in
  go 0

(* Admission: a read joins its key's in-assembly round if one is open
   and nothing is queued ahead of it (program order), else takes a free
   lane; a write takes the writer if it is free; and anything else
   queues. *)
let admit d idx ~now =
  let op = d.ops.(idx) in
  let r = reg_for d (op_key op) in
  if op_is_write op then
    match r.kwst with
    | (Sidle | Sparked _ | Sdone _) when Queue.is_empty r.kwq ->
        start_now d idx r writer ~now
    | Sidle | Sparked _ | Sdone _ | Sactive _ -> Queue.add idx r.kwq
  else if not (Queue.is_empty r.krq) then Queue.add idx r.krq
  else
    match open_batch d r with
    | Some (lane, b) -> join_read d idx r lane b ~now
    | None -> (
        match free_lane d r with
        | Some lane -> start_now d idx r lane ~now
        | None -> Queue.add idx r.krq)

(* Past the in-flight window only joins are admissible: they add no
   round and must not queue (queuing past the window would defeat its
   backpressure), so peek rather than admit. *)
let try_join_next d ~now =
  d.next_op < d.n
  &&
  let op = d.ops.(d.next_op) in
  (not (op_is_write op))
  &&
  match Hashtbl.find_opt d.regs (op_key op) with
  | Some r when Queue.is_empty r.krq -> (
      match open_batch d r with
      | Some (lane, b) ->
          join_read d d.next_op r lane b ~now;
          d.next_op <- d.next_op + 1;
          true
      | None -> false)
  | Some _ | None -> false

(* Freed roles first: their queued successors keep per-key program order
   ahead of fresh admissions. *)
let pump d ~now =
  while not (Queue.is_empty d.freed) do
    let r, lane = Queue.pop d.freed in
    start_next d r lane ~now
  done;
  while d.in_flight < d.window && d.next_op < d.n do
    admit d d.next_op ~now;
    d.next_op <- d.next_op + 1
  done;
  while try_join_next d ~now do
    ()
  done

(* Later reads chain onto the NEXT round instead of adopting evidence
   gathered before they were invoked. *)
let flushed d =
  Hashtbl.iter
    (fun (_, lane) r ->
      match get_st r lane with
      | Sactive { abatch = Some b; _ } -> Coalesce.close b
      | Sactive _ | Sidle | Sparked _ | Sdone _ -> ())
    d.actives

let timed_out d r lane (a : _ active) tm ~now =
  let what = if lane = writer then "write" else "read" in
  count d (if lane = writer then "op.write.timeout" else "op.read.timeout");
  let connected =
    List.filter d.host.connected (List.init (Shard.Map.fleet d.map) Fun.id)
    |> List.map (fun slot -> string_of_int (slot + 1))
  in
  let err =
    Printf.sprintf
      "%s of key %d by %s timed out after %d attempts (%.1fs deadline, \
       connected objects: %s)"
      what r.kkey (sender_of d lane) (a.aattempt + 1)
      tm.deadline
      (match connected with [] -> "none" | l -> String.concat "," l)
  in
  set_st r lane (Sparked { pcur = a.acur; pspan = a.aspan });
  finish_op d r lane a (Error err) ~now;
  respond_joiners d r lane a (Error err) ~now

(* Past its deadline a round backs off, then goes again to every member;
   past its last retry it times out. *)
let tick d ~now =
  let acts = Hashtbl.fold (fun k r acc -> (k, r) :: acc) d.actives [] in
  List.iter
    (fun ((_, lane), r) ->
      match get_st r lane with
      | Sactive a -> (
          if now >= a.hedge_at then widen d r ~lane a "op.expand.hedge";
          match d.timing with
          | Some tm when now >= a.due ->
              if a.backing_off then begin
                a.backing_off <- false;
                count d "net.client.retransmits";
                a.aattempt <- a.aattempt + 1;
                a.due <- deadline_after d now;
                send_all d r ~lane a
              end
              else if a.aattempt >= tm.retries then timed_out d r lane a tm ~now
              else begin
                a.backing_off <- true;
                a.due <- now + retry_backoff tm ~attempt:a.aattempt
              end
          | Some _ | None -> ())
      | Sidle | Sparked _ | Sdone _ -> ())
    acts

let next_wakeup d =
  Hashtbl.fold
    (fun (_, lane) r acc ->
      match get_st r lane with
      | Sactive a -> min acc (min a.due a.hedge_at)
      | Sidle | Sparked _ | Sdone _ -> acc)
    d.actives never
