(** What a client asks the round driver ({!Driver}) and what it reports:
    operations on keys, their outcomes, the [Invoke]/[Respond] events,
    and {!pick}, which chooses whom a fresh round goes to.  Hosts
    re-export these to their callers: [Net.Client.Keyed] includes this
    module. *)

type kop = Read of { key : int } | Write of { key : int; value : Value.t }

let op_key = function Read { key } | Write { key; _ } -> key

let op_is_write = function Read _ -> false | Write _ -> true

type outcome = {
  value : Value.t option;  (** [Some] for reads *)
  rounds : int;  (** rounds the protocol reported at completion *)
  retransmits : int;  (** deadline-triggered retransmissions *)
  latency_us : int;  (** response time minus the op's span start *)
}

type event =
  | Invoke of {
      op : int;
      key : int;
      write : bool;
      reader : int;
      joined : bool;
      at_us : int;
    }
      (** [reader] is the lane's reader id (0 for a write); [joined]
          means the read joined another read's round. *)
  | Respond of {
      op : int;
      key : int;
      write : bool;
      reader : int;
      joined : bool;
      at_us : int;
      outcome : (outcome, string) result;
      span : Obs.Span.t option;
    }
      (** [span] is the span the op started (open if the op failed); the
          driver keeps none once it is handed out here.  An op that
          resumed or adopted a parked round carries [None]: that round's
          span left with the op that started it.  [Error] is a timeout or
          a start the automaton refused. *)

(** Who gets a fresh round: element [rank] is [true] iff fleet slot
    [members.(rank)] is chosen — the [q] connected members with the
    fewest [unanswered] frames (sent since the slot last replied), ties
    to the lower slot, or every connected member if at most [q] are.
    O(q·S) scans, no sort: S is a shard's size; a fan-out of S (the
    simulator's) takes the connected members in one pass. *)
let pick ~members ~connected ~unanswered ~q =
  let n = Array.length members in
  if q >= n then Array.map connected members
  else begin
    let chosen = Array.make n false in
    let rec go k =
      if k < q then begin
        let best = ref (-1) in
        for rank = 0 to n - 1 do
          let slot = members.(rank) in
          if (not chosen.(rank)) && connected slot then
            if !best < 0 then best := rank
            else
              let b = members.(!best) in
              let u = unanswered slot and ub = unanswered b in
              if u < ub || (u = ub && slot < b) then best := rank
        done;
        if !best >= 0 then begin
          chosen.(!best) <- true;
          go (k + 1)
        end
      end
    in
    go 0;
    chosen
  end
