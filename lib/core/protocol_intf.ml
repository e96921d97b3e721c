(** The shape every storage protocol exposes to the runtimes.

    A protocol bundles three pure state machines — base object, writer,
    reader — over its own wire message type.  The runtimes own all side
    effects: the simulator ({!Scenario}) and the socket engine
    ([Net.Client.Keyed]) each host the round driver ({!Driver}), which
    sends the messages the machines return and feeds replies back in,
    and they record operations; the simulator and [Net.Server] each
    step objects through the object host ({!Object_host}).  The
    paper's safe and regular storages and every baseline implement this
    signature, which is what makes the cross-protocol experiments (E4)
    one table loop instead of per-protocol drivers. *)

module type S = sig
  val name : string

  (** {2 Wire messages} *)

  type msg

  val msg_info : msg -> string

  val msg_size_words : msg -> int

  val msg_class : msg -> Obs.Wire.t
  (** Observability classification (operation kind, round, direction);
      lets the engine and metrics layer attribute traffic to protocol
      rounds without decoding the wire format. *)

  (** {2 Base object} *)

  type obj

  val obj_init : cfg:Quorum.Config.t -> index:int -> obj

  val obj_handle : obj -> src:Sim.Proc_id.t -> msg -> obj * msg option
  (** One atomic step; the optional message is the reply to [src]. *)

  (** {2 Writer} *)

  type writer

  val writer_init : cfg:Quorum.Config.t -> writer

  val writer_start : writer -> Value.t -> (writer * msg, string) result
  (** Returns the round-1 broadcast. *)

  val writer_on_msg :
    writer -> obj:int -> msg -> writer * msg Events.client_event list

  (** {2 Reader} *)

  type reader

  val reader_init : cfg:Quorum.Config.t -> j:int -> reader

  val reader_start : reader -> (reader * msg, string) result
  (** Returns the round-1 broadcast. *)

  val reader_on_msg :
    reader -> obj:int -> msg -> reader * msg Events.client_event list

  val reader_on_reconnect : reader -> reader
  (** Transport hook: a connection to a base object was re-established
      (client reconnect or server restart).  Protocols that keep
      client-side cached state derived from object replies (the §5.1
      timestamp cache of regular-gc) resync it here; pure protocols
      return the reader unchanged.  The simulator never calls this —
      its channels do not fail — but the network client calls it on
      every successful re-dial. *)
end
