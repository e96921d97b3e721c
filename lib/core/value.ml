type t = Bottom | V of string

let bottom = Bottom

let v s = V s

let is_bottom = function Bottom -> true | V _ -> false

let equal a b =
  match (a, b) with
  | Bottom, Bottom -> true
  | V x, V y -> String.equal x y
  | Bottom, V _ | V _, Bottom -> false

let compare a b =
  match (a, b) with
  | Bottom, Bottom -> 0
  | Bottom, V _ -> -1
  | V _, Bottom -> 1
  | V x, V y -> String.compare x y

let pp ppf = function
  | Bottom -> Format.pp_print_string ppf "_|_"
  | V s -> Format.fprintf ppf "%S" s

let to_string = function Bottom -> "_|_" | V s -> s

let payload = function Bottom -> None | V s -> Some s

let to_result = function
  | Bottom -> Histories.Op.Bottom
  | V s -> Histories.Op.Value s
