module Make (C : sig
  val readers : int
end) : Protocol_intf.S with type msg = Messages.t = struct
  let name = "regular-gc"

  type msg = Messages.t

  let msg_info = Messages.info

  let msg_size_words = Messages.size_words

  let msg_class = Messages.classify

  type obj = Regular_object_gc.t

  let obj_init ~cfg:_ ~index = Regular_object_gc.init ~index ~readers:C.readers

  let obj_handle = Regular_object_gc.handle

  type writer = Writer.t

  let writer_init ~cfg = Writer.init ~cfg

  let writer_start = Writer.start_write

  let writer_on_msg w ~obj msg =
    let w, event = Writer.on_message w ~obj msg in
    let events =
      match event with
      | Writer.Nothing -> []
      | Writer.Broadcast m -> [ Events.Broadcast m ]
      | Writer.Done { rounds } -> [ Events.Write_done { rounds } ]
    in
    (w, events)

  type reader = Regular_reader.t

  let reader_init ~cfg ~j = Regular_reader.init ~cfg ~j ~cached:true ()

  let reader_start = Regular_reader.start_read

  let reader_on_reconnect = Regular_reader.on_reconnect

  (* A read that decided on round-1 evidence stops there: the Read2 the
     automaton emits next to the decision is dropped.  It would carry the
     same from_ts as the Read1 just sent (the cache moves only with the
     decision), so it advances no GC floor; all it changes at an object
     is tsr[j], from ts_fr+1 to ts_fr, and reader j's later reads compare
     tsr[j] only against bounds >= ts_fr+2. *)
  let reader_on_msg r ~obj msg =
    let r, events = Regular_reader.on_message r ~obj msg in
    let decided =
      List.exists
        (function Regular_reader.Return _ -> true | Broadcast _ -> false)
        events
    in
    let events =
      List.filter_map
        (function
          | Regular_reader.Broadcast _ when decided -> None
          | Regular_reader.Broadcast m -> Some (Events.Broadcast m)
          | Regular_reader.Return { value; rounds } ->
              Some (Events.Read_done { value; rounds }))
        events
    in
    (r, events)
end
