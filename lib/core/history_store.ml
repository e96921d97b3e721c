type entry = { pw : Tsval.t; w : Wtuple.t option }

type t = entry Ints.Map.t

let empty = Ints.Map.empty

let init = Ints.Map.singleton 0 { pw = Tsval.init; w = Some Wtuple.init }

let find t ~ts = Ints.Map.find_opt ts t

let get t ~ts = Ints.Map.find ts t

let set t ~ts entry = Ints.Map.add ts entry t

let on_pw t ~ts' ~pw' ~w' =
  let t = Ints.Map.add ts' { pw = pw'; w = None } t in
  Ints.Map.add (ts' - 1) { pw = w'.Wtuple.tsval; w = Some w' } t

let on_w t ~ts' ~pw' ~w' = Ints.Map.add ts' { pw = pw'; w = Some w' } t

let suffix t ~from_ts = Ints.Map.filter (fun ts _ -> ts >= from_ts) t

let max_ts t = match Ints.Map.max_binding_opt t with None -> -1 | Some (ts, _) -> ts

let length t = Ints.Map.cardinal t

let tuples t =
  Ints.Map.fold
    (fun _ entry acc -> match entry.w with None -> acc | Some w -> w :: acc)
    t []
  |> List.rev

let bindings t = Ints.Map.bindings t

let fold f t acc = Ints.Map.fold f t acc

let compare_entry a b =
  match Tsval.compare a.pw b.pw with
  | 0 -> Option.compare Wtuple.compare a.w b.w
  | c -> c

let compare = Ints.Map.compare compare_entry

let equal a b = compare a b = 0

let pp ppf t =
  let pp_entry ts { pw; w } =
    let pp_w ppf = function
      | None -> Format.pp_print_string ppf "nil"
      | Some w -> Wtuple.pp ppf w
    in
    Format.fprintf ppf "%d:<%a,%a> " ts Tsval.pp pw pp_w w
  in
  Ints.Map.iter pp_entry t
