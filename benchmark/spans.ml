(* In-memory spans for traced runs: one record per layer boundary the
   benchmark crosses (phase, [run_ops] call, replayed automaton or codec
   call, checker call), written out as JSON Lines once the run is over
   so that recording costs no I/O while it measures.

   A span's layer is its name up to the first dot; a layer's self time
   is the time its spans cover minus the time their child spans cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_us () = now_ns () / 1000

(* This process's CPU time, user plus system, in seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type t = {
  mutable parent : int array;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable len : int;
}

let create () =
  let n = 4096 in
  {
    parent = Array.make n (-1);
    name = Array.make n "";
    start = Array.make n 0;
    stop = Array.make n 0;
    len = 0;
  }

let grow t =
  let n = 2 * Array.length t.parent in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.parent <- extend t.parent (-1);
  t.name <- extend t.name "";
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0

(* A finished span whose interval the caller measured; returns its id.
   The root's parent is -1. *)
let add t ~parent name ~start ~stop =
  if t.len = Array.length t.parent then grow t;
  let id = t.len in
  t.parent.(id) <- parent;
  t.name.(id) <- name;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.len <- id + 1;
  id

let enter t ~parent name = add t ~parent name ~start:(now_ns ()) ~stop:0

let leave t id = t.stop.(id) <- now_ns ()

(* [within sp ~parent name f] runs [f id] inside a span when tracing and
   [f (-1)] otherwise, so call sites need no second code path. *)
let within sp ~parent name f =
  match sp with
  | None -> f (-1)
  | Some t ->
      let id = enter t ~parent name in
      Fun.protect ~finally:(fun () -> leave t id) (fun () -> f id)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, in nanoseconds, sorted by layer name. *)
let self_ns t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let by_layer = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let l = layer t.name.(i) in
    let prev = Option.value (Hashtbl.find_opt by_layer l) ~default:0 in
    Hashtbl.replace by_layer l (prev + self.(i))
  done;
  Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) by_layer []
  |> List.sort compare

(* Span ids are per run, so each line names its run. *)
let write_jsonl oc ~run t =
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"run\":\"%s\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d}\n"
      run i t.parent.(i) t.name.(i) t.start.(i) t.stop.(i)
  done
