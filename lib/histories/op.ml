type 'v read_result = Bottom | Value of 'v

type 'v action =
  | Write of { index : int; value : 'v }
  | Read of { reader : int; result : 'v read_result option }

type 'v t = {
  id : int;
  action : 'v action;
  invoked_at : int;
  invoked_stamp : int;
  responded_at : int option;
  responded_stamp : int option;
  rounds : int option;
}

let is_complete op = Option.is_some op.responded_stamp

let completed ops =
  List.filter is_complete ops
  |> List.sort (fun a b ->
         Option.compare Int.compare a.responded_stamp b.responded_stamp)

let latency op =
  match op.responded_at with
  | Some t -> t - op.invoked_at
  | None -> invalid_arg "Op.latency: the operation never responded"

let is_write op = match op.action with Write _ -> true | Read _ -> false

let is_read op = match op.action with Read _ -> true | Write _ -> false

let precedes a b =
  match a.responded_stamp with
  | None -> false
  | Some resp -> resp < b.invoked_stamp

let concurrent a b = a.id <> b.id && (not (precedes a b)) && not (precedes b a)

let write_index op =
  match op.action with Write { index; _ } -> Some index | Read _ -> None

let read_result op =
  match op.action with
  | Read { result; _ } -> result
  | Write _ -> None

let pp_result ~pp_value ppf = function
  | None -> Format.pp_print_string ppf "?"
  | Some Bottom -> Format.pp_print_string ppf "_|_"
  | Some (Value v) -> pp_value ppf v

let pp ~pp_value ppf op =
  let pp_window ppf () =
    match op.responded_at with
    | Some t -> Format.fprintf ppf "[%d,%d]" op.invoked_at t
    | None -> Format.fprintf ppf "[%d,+inf)" op.invoked_at
  in
  match op.action with
  | Write { index; value } ->
      Format.fprintf ppf "wr%d(%a)%a" index pp_value value pp_window ()
  | Read { reader; result } ->
      Format.fprintf ppf "rd(r%d)=%a%a" reader (pp_result ~pp_value) result
        pp_window ()
