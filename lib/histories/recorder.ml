type op_handle = int

type 'v pending =
  | Pending_write of { index : int; value : 'v }
  | Pending_read of { reader : int }

type 'v open_op = { invoked_at : int; invoked_stamp : int; pending : 'v pending }

(* Open-op and busy-reader bookkeeping is hashed, not kept in assoc
   lists: the pipelined runtime records an invoke/respond pair per
   operation with up to the whole window open at once, so per-event cost
   must stay O(1) in the window size. *)
type 'v t = {
  mutable next_id : int;
  mutable next_stamp : int;
  mutable writes_so_far : int;
  mutable writer_busy : bool;
  busy_readers : (int, unit) Hashtbl.t;
  open_ops : (int, 'v open_op) Hashtbl.t;
  mutable finished : 'v Op.t list;  (* reverse response order *)
}

let create () =
  {
    next_id = 0;
    next_stamp = 0;
    writes_so_far = 0;
    writer_busy = false;
    busy_readers = Hashtbl.create 16;
    open_ops = Hashtbl.create 64;
    finished = [];
  }

let fresh_stamp t =
  let s = t.next_stamp in
  t.next_stamp <- s + 1;
  s

let invoke t ~time pending =
  let id = t.next_id in
  t.next_id <- id + 1;
  let entry = { invoked_at = time; invoked_stamp = fresh_stamp t; pending } in
  Hashtbl.replace t.open_ops id entry;
  id

let invoke_write t ~time value =
  if t.writer_busy then
    invalid_arg "Recorder.invoke_write: writer already has an operation in progress";
  t.writer_busy <- true;
  t.writes_so_far <- t.writes_so_far + 1;
  invoke t ~time (Pending_write { index = t.writes_so_far; value })

let invoke_read t ~time ~reader =
  if Hashtbl.mem t.busy_readers reader then
    invalid_arg "Recorder.invoke_read: reader already has an operation in progress";
  Hashtbl.replace t.busy_readers reader ();
  invoke t ~time (Pending_read { reader })

let close t handle entry ~time ~rounds action =
  Hashtbl.remove t.open_ops handle;
  let stamp = fresh_stamp t in
  let op =
    {
      Op.id = handle;
      action;
      invoked_at = entry.invoked_at;
      invoked_stamp = entry.invoked_stamp;
      responded_at = Some time;
      responded_stamp = Some stamp;
      rounds;
    }
  in
  t.finished <- op :: t.finished

let respond_write ?rounds t handle ~time =
  match Hashtbl.find_opt t.open_ops handle with
  | Some ({ pending = Pending_write { index; value }; _ } as entry) ->
      t.writer_busy <- false;
      close t handle entry ~time ~rounds (Op.Write { index; value })
  | Some { pending = Pending_read _; _ } ->
      invalid_arg "Recorder.respond_write: handle belongs to a read"
  | None ->
      invalid_arg "Recorder.respond_write: unknown or already-closed operation"

let respond_read ?rounds t handle ~time result =
  match Hashtbl.find_opt t.open_ops handle with
  | Some ({ pending = Pending_read { reader }; _ } as entry) ->
      Hashtbl.remove t.busy_readers reader;
      close t handle entry ~time ~rounds
        (Op.Read { reader; result = Some result })
  | Some { pending = Pending_write _; _ } ->
      invalid_arg "Recorder.respond_read: handle belongs to a write"
  | None ->
      invalid_arg "Recorder.respond_read: unknown or already-closed operation"

let ops t =
  let open_as_ops =
    Hashtbl.fold
      (fun id { invoked_at; invoked_stamp; pending } acc ->
        let action =
          match pending with
          | Pending_write { index; value } -> Op.Write { index; value }
          | Pending_read { reader } -> Op.Read { reader; result = None }
        in
        {
          Op.id;
          action;
          invoked_at;
          invoked_stamp;
          responded_at = None;
          responded_stamp = None;
          rounds = None;
        }
        :: acc)
      t.open_ops []
  in
  let all = List.rev_append t.finished open_as_ops in
  List.sort (fun a b -> Int.compare a.Op.invoked_stamp b.Op.invoked_stamp) all

let write_count t = t.writes_so_far

let read_count t = List.length (List.filter Op.is_read (ops t))

let complete_reads t =
  List.filter (fun op -> Op.is_read op && Op.is_complete op) (ops t)
