type t = Writer | Reader of int | Obj of int

let rank = function Writer -> 0 | Reader _ -> 1 | Obj _ -> 2

let compare a b =
  match (a, b) with
  | Writer, Writer -> 0
  | Reader i, Reader j | Obj i, Obj j -> Int.compare i j
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = Hashtbl.hash

let to_string = function
  | Writer -> "w"
  | Reader j -> "r" ^ string_of_int j
  | Obj i -> "s" ^ string_of_int i

(* The decimal suffix of "r<j>"/"s<i>" from position [i], parsed in
   place (servers and clients call this once per frame); -1 on a
   non-digit or an overflow. *)
let rec digits s i acc =
  if i >= String.length s then acc
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc > (max_int - d) / 10 then -1 else digits s (i + 1) ((acc * 10) + d)
    | _ -> -1

(* A leading zero is rejected too, so the parse inverts [to_string]
   exactly. *)
let of_string s =
  if String.equal s "w" then Some Writer
  else if String.length s < 2 || s.[1] = '0' then None
  else
    match (s.[0], digits s 1 0) with
    | 'r', j when j >= 1 -> Some (Reader j)
    | 's', i when i >= 1 -> Some (Obj i)
    | _ -> None

let pp ppf id = Format.pp_print_string ppf (to_string id)

let is_object = function Obj _ -> true | Writer | Reader _ -> false

let is_client = function Writer | Reader _ -> true | Obj _ -> false

let objects ~s = List.init s (fun i -> Obj (i + 1))

let readers ~r = List.init r (fun j -> Reader (j + 1))

let obj_index = function
  | Obj i -> i
  | (Writer | Reader _) as id ->
      invalid_arg ("Proc_id.obj_index: " ^ to_string id)

let reader_index = function
  | Reader j -> j
  | (Writer | Obj _) as id ->
      invalid_arg ("Proc_id.reader_index: " ^ to_string id)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
