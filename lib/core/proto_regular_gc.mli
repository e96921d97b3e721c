(** The regular storage with garbage-collected objects
    ({!Regular_object_gc}) and §5.1 cached readers, for a fixed reader
    set of size [readers].  Same wire protocol and semantics as
    {!Proto_regular.Optimized}; bounded per-object storage.  A read
    that decides on round-1 evidence sends no [Read2]: it is one round
    on the wire, not only in its report.  At [S >= 2t + 2b + 1] every
    read decides so; at [S = 2t + b + 1] one does unless a lie or an
    overlapping write leaves its round-1 verdict open (Proposition 1). *)

module Make (_ : sig
  val readers : int
end) : Protocol_intf.S with type msg = Messages.t
