type t = { s : int; t : int; b : int }

let make ~s ~t ~b =
  if b < 0 then Error "b must be non-negative"
  else if t < b then Error "t must be at least b (Byzantine failures count towards t)"
  else if s < 1 then Error "s must be at least 1"
  else Ok { s; t; b }

let make_exn ~s ~t ~b =
  match make ~s ~t ~b with Ok c -> c | Error e -> invalid_arg ("Config.make: " ^ e)

let optimal_s ~t ~b = (2 * t) + b + 1

let optimal ~t ~b = make_exn ~s:(optimal_s ~t ~b) ~t ~b

let is_optimally_resilient c = c.s = optimal_s ~t:c.t ~b:c.b

let meets_resilience_bound c = c.s >= optimal_s ~t:c.t ~b:c.b

let fast_read_admissible c = c.s >= (2 * c.t) + (2 * c.b) + 1

let quorum c = c.s - c.t

let pp ppf c = Format.fprintf ppf "S=%d t=%d b=%d" c.s c.t c.b

let to_string c = Format.asprintf "%a" pp c

let equal a b = a.s = b.s && a.t = b.t && a.b = b.b
