(** The protocols that can be served over the network: a
    {!Core.Protocol_intf.S} implementation packed with the {!Codec} for
    its wire message type.

    The pack is existential in the message type, so servers, clients and
    the CLI handle heterogeneous protocols through one value; they
    unpack it once at session setup.  Every pack reuses the simulator's
    protocol modules unchanged — the network runtime adds only framing,
    deadlines and retries (see DESIGN.md §10).  What a protocol claims,
    and how a run is judged, is the protocol table's
    ({!Fault.Campaign.entry}), and [Net.Live.protocol_of] maps each of
    its rows to a pack. *)

type t =
  | Packed : {
      proto : (module Core.Protocol_intf.S with type msg = 'm);
      codec : 'm Codec.t;
    }
      -> t

val name : t -> string
(** The protocol's own [P.name]. *)

val safe : t

val regular : t

val regular_opt : t

val regular_gc : readers:int -> t
(** The §5.1 cached/suffix variant ({!Core.Proto_regular_gc}) on the
    wire: readers send [Read1/Read2 { from_ts }] with their cached
    timestamp, objects answer with the history {e suffix} past it and
    garbage-collect entries below every reader's floor.  [readers] sizes
    the server-side floor set, and pruning starts once that many readers
    have shown a floor: pass the real reader count.  A larger count only
    keeps pruning off; a smaller one lets objects drop entries a reader
    they have not yet heard from may still need.  A read that decides on
    round-1 evidence sends no [Read2].  At [S >= 2t+2b+1] every read
    does, despite [b] lies; below it a read does unless a lie or an
    overlapping write blocks the decision, and then runs round 2
    (Proposition 1).  The codec already frames [from_ts] and suffix
    histories (wire version unchanged). *)

val abd : t

val abd_atomic : t
