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
