module Int_map = Map.Make (Int)

type t = int Int_map.t Int_map.t

let empty = Int_map.empty

let set_row m ~obj row = Int_map.add obj row m

let row m ~obj = Int_map.find_opt obj m

let row_present m ~obj = Int_map.mem obj m

let rows_present m = List.map fst (Int_map.bindings m)

let row_count = Int_map.cardinal

let fold_rows f m acc = Int_map.fold f m acc

let get m ~obj ~reader =
  match Int_map.find_opt obj m with
  | None -> None
  | Some r -> Some (Option.value (Int_map.find_opt reader r) ~default:0)

let exceeds m ~obj ~reader ~bound =
  match get m ~obj ~reader with None -> false | Some ts -> ts > bound

(* An absent reader entry in a present row is that object's initial 0. *)
let entry_above ~reader ~bound _obj r =
  match Int_map.find reader r with
  | ts -> ts > bound
  | exception Not_found -> 0 > bound

let defames m ~reader ~bound = Int_map.exists (entry_above ~reader ~bound) m

let compare a b =
  if a == b then 0 else Int_map.compare (Int_map.compare Int.compare) a b

let equal a b = a == b || compare a b = 0

let pp ppf m =
  let pp_row ppf r =
    Int_map.iter (fun j ts -> Format.fprintf ppf "r%d:%d " j ts) r
  in
  Int_map.iter (fun i r -> Format.fprintf ppf "[s%d: %a]" i pp_row r) m
