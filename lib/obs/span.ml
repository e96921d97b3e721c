type kind = Read of { reader : int } | Write

let kind_to_string = function Read _ -> "read" | Write -> "write"

type t = {
  id : int;
  kind : kind;
  proc : string;
  started_at : int;
  trace_first : int;
  mutable rounds : int;
  mutable rev_transitions : (int * int) list;
  mutable rev_contacted : int list;  (* distinct object indices, newest first *)
  mutable replies : int;
  mutable completed_at : int option;
  mutable reported_rounds : int option;
  mutable result : string option;
  mutable trace_len : int;
}

let completed s = Option.is_some s.completed_at

let transitions s = List.rev s.rev_transitions

let contacted s = List.sort_uniq Int.compare s.rev_contacted

let create ~id kind ~proc ~now ~trace_pos =
  {
    id;
    kind;
    proc;
    started_at = now;
    trace_first = trace_pos;
    rounds = 1;
    rev_transitions = [];
    rev_contacted = [];
    replies = 0;
    completed_at = None;
    reported_rounds = None;
    result = None;
    trace_len = 0;
  }

let transition s ~now =
  s.rounds <- s.rounds + 1;
  s.rev_transitions <- (s.rounds, now) :: s.rev_transitions

let contact s ~obj =
  s.replies <- s.replies + 1;
  if not (List.mem obj s.rev_contacted) then
    s.rev_contacted <- obj :: s.rev_contacted

let finish s ~now ~rounds ?result ~trace_pos () =
  s.completed_at <- Some now;
  s.reported_rounds <- Some rounds;
  s.result <- result;
  s.trace_len <- trace_pos - s.trace_first

let pp ppf s =
  Format.fprintf ppf "#%d %s %s [%d, %s] rounds=%d contacted={%s}" s.id
    (kind_to_string s.kind) s.proc s.started_at
    (match s.completed_at with Some t -> string_of_int t | None -> "open")
    s.rounds
    (String.concat "," (List.map string_of_int (contacted s)))
