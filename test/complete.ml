(* What the simulator tests read off a run's history: its complete
   operations, in the order they responded. *)

let count h = List.length (Histories.Op.completed h)

let reads h = List.filter Histories.Op.is_read (Histories.Op.completed h)

(* The rounds each complete operation reported. *)
let rounds h =
  List.filter_map
    (fun (op : string Histories.Op.t) -> op.rounds)
    (Histories.Op.completed h)

let read_rounds h = rounds (List.filter Histories.Op.is_read h)

(* The value (as [Histories.Op.pp_result] prints it) and rounds of each
   complete read. *)
let read_pairs h =
  let pp_result = Histories.Op.pp_result ~pp_value:Format.pp_print_string in
  List.filter_map
    (fun (op : string Histories.Op.t) ->
      match op.action with
      | Read { result; _ } ->
          Some (Format.asprintf "%a" pp_result result, Option.get op.rounds)
      | Write _ -> None)
    (Histories.Op.completed h)
