type entry = Driver_ops.event * Driver_ops.kop

(* A growable array: appending is the only work on the client's hot
   path. *)
type log = { mutable entries : entry array; mutable len : int }

type t = { lock : Mutex.t; mutable logs : log list }

let create () = { lock = Mutex.create (); logs = [] }

let log t =
  let l = { entries = [||]; len = 0 } in
  Mutex.lock t.lock;
  t.logs <- l :: t.logs;
  Mutex.unlock t.lock;
  l

let event l op_of ev =
  let op =
    match ev with Driver_ops.Invoke { op; _ } | Respond { op; _ } -> op
  in
  let e = (ev, op_of op) in
  if l.len = Array.length l.entries then begin
    let bigger = Array.make (max 1024 (2 * l.len)) e in
    Array.blit l.entries 0 bigger 0 l.len;
    l.entries <- bigger
  end;
  l.entries.(l.len) <- e;
  l.len <- l.len + 1

let spans t =
  List.concat_map
    (fun l ->
      let own = ref [] in
      for i = 0 to l.len - 1 do
        match l.entries.(i) with
        | Driver_ops.Respond { span = Some s; _ }, _ -> own := s :: !own
        | (Driver_ops.Respond { span = None; _ } | Invoke _), _ -> ()
      done;
      List.sort (fun (a : Obs.Span.t) b -> Int.compare a.id b.id) !own)
    (List.rev t.logs)

let key_of = function Driver_ops.Invoke { key; _ } | Respond { key; _ } -> key

let at_of = function
  | Driver_ops.Invoke { at_us; _ } | Respond { at_us; _ } -> at_us

let is_invoke = function Driver_ops.Invoke _ -> true | Respond _ -> false

let result_of (o : Driver_ops.outcome) =
  Value.to_result (Option.value o.value ~default:Value.bottom)

(* Which log's head goes next: the earliest stamp, and at equal stamps
   an invocation before a response.  When every tied head is a
   response, prefer one with an invocation right behind it at the same
   stamp: that invocation then also goes before the other responses. *)
let pick heads =
  let rank = function
    | [] -> None
    | (ev, _) :: rest ->
        let tie =
          if is_invoke ev then 0
          else
            match rest with
            | (next, _) :: _ when is_invoke next && at_of next = at_of ev -> 1
            | _ -> 2
        in
        Some (at_of ev, tie)
  in
  let best = ref None in
  Array.iteri
    (fun i h ->
      match (rank h, !best) with
      | None, _ -> ()
      | Some r, Some (_, rb) when compare r rb >= 0 -> ()
      | Some r, _ -> best := Some (i, r))
    heads;
  Option.map fst !best

(* Replay one key's events, [heads.(i)] being log [i]'s in its order,
   into a fresh recorder.  Open operations are tracked per log: lanes by
   reader id (0 is the writer), joined reads by op index, which is
   unique among the reads open in one [run_ops] call. *)
let replay heads =
  let r = Histories.Recorder.create () in
  let lanes = Hashtbl.create 8 in
  let joined = Hashtbl.create 8 in
  let next_jrid = ref 0 in
  let apply li ((ev : Driver_ops.event), kop) =
    match ev with
    | Invoke { op; joined = true; at_us; _ } ->
        decr next_jrid;
        Hashtbl.replace joined (li, op)
          (Histories.Recorder.invoke_read r ~time:at_us ~reader:!next_jrid)
    | Respond { op; joined = true; at_us; outcome; _ } -> (
        match Hashtbl.find_opt joined (li, op) with
        | None -> ()
        | Some h -> (
            Hashtbl.remove joined (li, op);
            match outcome with
            | Ok o ->
                Histories.Recorder.respond_read ~rounds:o.rounds r h
                  ~time:at_us (result_of o)
            | Error _ -> ()))
    | Invoke { write; reader; at_us; _ } ->
        if not (Hashtbl.mem lanes (li, reader)) then
          Hashtbl.replace lanes (li, reader)
            (match kop with
            | Driver_ops.Write { value; _ } when write ->
                Histories.Recorder.invoke_write r ~time:at_us
                  (Value.to_string value)
            | Write _ | Read _ ->
                Histories.Recorder.invoke_read r ~time:at_us ~reader)
    | Respond { outcome = Error _; _ } -> ()
    | Respond { write; reader; at_us; outcome = Ok o; _ } -> (
        match Hashtbl.find_opt lanes (li, reader) with
        | None -> ()
        | Some h ->
            Hashtbl.remove lanes (li, reader);
            let rounds = o.rounds in
            if write then
              Histories.Recorder.respond_write ~rounds r h ~time:at_us
            else
              Histories.Recorder.respond_read ~rounds r h ~time:at_us
                (result_of o))
  in
  let rec go () =
    match pick heads with
    | None -> ()
    | Some li ->
        (match heads.(li) with
        | e :: rest ->
            heads.(li) <- rest;
            apply li e
        | [] -> ());
        go ()
  in
  go ();
  Histories.Recorder.ops r

let histories t =
  Mutex.lock t.lock;
  let logs = Array.of_list (List.rev t.logs) in
  Mutex.unlock t.lock;
  let n = Array.length logs in
  let per_key = Hashtbl.create 64 in
  Array.iteri
    (fun li l ->
      for i = l.len - 1 downto 0 do
        let ((ev, _) as e) = l.entries.(i) in
        let key = key_of ev in
        let heads =
          match Hashtbl.find_opt per_key key with
          | Some h -> h
          | None ->
              let h = Array.make n [] in
              Hashtbl.replace per_key key h;
              h
        in
        heads.(li) <- e :: heads.(li)
      done)
    logs;
  Hashtbl.fold (fun key heads acc -> (key, replay heads) :: acc) per_key []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
