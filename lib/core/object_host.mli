(** The object host: one base object across a keyspace, shared by the
    simulator and the socket server.

    A host steps a protocol's base-object automaton
    ({!Protocol_intf.S}) for every key a message names, creating the
    key's automaton on first contact.  It does no I/O and reads no
    clock: a {e runtime} hands it one message with the time as an int
    on its own clock, and sends the messages it returns.  Two runtimes
    exist: {!Scenario}, one host per simulated object, and [Net.Server],
    one per slot of a server group.

    Next to each key's automaton the host keeps the last reply it sent
    each sender.  A request that reply [answers] is a retransmit — a
    sender's timestamps only grow — and gets the same reply again
    without stepping the automaton, which would ignore it (Figure 3
    answers only fresh timestamps): over a lossy link a lost reply is
    sent again, as reliable channels would deliver it.  The runtimes
    differ only there: the wire passes [Codec.answers], the simulator a
    function that matches nothing, since its channels lose no reply and
    a duplicated request must stay unanswered.

    A Byzantine object (§2.1) answers every key with its behaviour until
    a restart, which makes the object honest again; the keys it kept
    survive the restart unless it wipes them. *)

type ('m, 'o) protocol =
  (module Protocol_intf.S with type msg = 'm and type obj = 'o)

type ('m, 'o) t

val create :
  ('m, 'o) protocol ->
  answers:(request:'m -> 'm -> bool) ->
  cfg:Quorum.Config.t ->
  index:int ->
  ('m, 'o) t
(** Object [index] (1-based), with no key yet. *)

val handle :
  ('m, 'o) t ->
  key:int ->
  src:Sim.Proc_id.t ->
  now:int ->
  'm ->
  (Sim.Proc_id.t * 'm) list
(** Deliver one message from [src] to [key]'s register; returns the
    messages to send.  An honest object answers [src] at most once. *)

val byzantine : ('m, 'o) t -> 'm Byz.behaviour -> unit
(** Answer every key with the behaviour from now on. *)

val restart : ('m, 'o) t -> wipe:bool -> unit
(** Make the object honest again; with [wipe] it also forgets every key
    and every reply it sent. *)
