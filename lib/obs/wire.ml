type op = Read | Write | Other

type t = { op : op; round : int; request : bool }

(* Rounds 1..4 are shared values, so classifying a message allocates
   nothing. *)
let make op =
  let shared =
    Array.init 8 (fun i -> { op; round = (i / 2) + 1; request = i land 1 = 1 })
  in
  fun ~round ~request ->
    if round < 1 || round > 4 then { op; round; request }
    else shared.(((round - 1) * 2) + Bool.to_int request)

let read = make Read

let write = make Write

let other = { op = Other; round = 0; request = false }

let op_to_string = function Read -> "read" | Write -> "write" | Other -> "other"

let to_string c =
  match c.op with
  | Other -> "other"
  | Read | Write ->
      Printf.sprintf "%s.r%d.%s" (op_to_string c.op) c.round
        (if c.request then "req" else "ack")

type stage = Sent | Delivered | Dropped

let stage_to_string = function
  | Sent -> "sent"
  | Delivered -> "delivered"
  | Dropped -> "dropped"
