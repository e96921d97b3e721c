type t =
  | Packed : {
      proto : (module Core.Protocol_intf.S with type msg = 'm);
      codec : 'm Codec.t;
    }
      -> t

let name (Packed { proto = (module P); _ }) = P.name

let safe = Packed { proto = (module Core.Proto_safe); codec = Codec.messages }

let regular =
  Packed { proto = (module Core.Proto_regular.Plain); codec = Codec.messages }

let regular_opt =
  Packed
    { proto = (module Core.Proto_regular.Optimized); codec = Codec.messages }

let regular_gc ~readers =
  let module Gc = Core.Proto_regular_gc.Make (struct
    let readers = readers
  end) in
  Packed { proto = (module Gc); codec = Codec.messages }

let abd = Packed { proto = (module Baseline.Abd.Regular); codec = Codec.abd }

let abd_atomic =
  Packed { proto = (module Baseline.Abd.Atomic); codec = Codec.abd }

let all = [ safe; regular; regular_opt; regular_gc ~readers:2; abd; abd_atomic ]

let of_string s = List.find_opt (fun p -> name p = s) all

type semantics = Safe | Regular | Atomic

let semantics p =
  match name p with
  | "safe" -> Safe
  | "regular" | "regular-opt" | "regular-gc" | "abd" -> Regular
  | "abd-atomic" -> Atomic
  | n -> invalid_arg ("Protocols.semantics: " ^ n)

let semantics_name = function
  | Safe -> "safety"
  | Regular -> "regularity"
  | Atomic -> "atomicity"

let check semantics h =
  let equal = String.equal in
  match semantics with
  | Safe -> Histories.Checks.check_safety ~equal h
  | Regular -> Histories.Checks.check_regularity ~equal h
  | Atomic -> Histories.Checks.check_atomicity ~equal h
