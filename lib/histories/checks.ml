type 'v violation = { read : 'v Op.t; rule : string; detail : string }

let writes ops = List.filter Op.is_write ops

let complete_reads ops =
  List.filter (fun op -> Op.is_read op && Op.is_complete op) ops

(* The helpers below take [ws], the history's writes, which each checker
   filters out once: a check then costs O(reads x writes), not
   O(reads x ops). *)

(* Highest index among complete writes that precede [rd]; 0 if none. *)
let last_preceding_write_index ws rd =
  List.fold_left
    (fun acc wr ->
      match Op.write_index wr with
      | Some k when Op.precedes wr rd -> max acc k
      | Some _ | None -> acc)
    0 ws

let value_of_write ws k =
  List.find_map
    (fun wr ->
      match wr.Op.action with
      | Op.Write { index; value } when index = k -> Some value
      | Op.Write _ | Op.Read _ -> None)
    ws

(* Indices k such that val_k = x among all invoked writes. *)
let indices_of_value ~equal ws x =
  List.filter_map
    (fun wr ->
      match wr.Op.action with
      | Op.Write { index; value } when equal value x -> Some (index, wr)
      | Op.Write _ | Op.Read _ -> None)
    ws

let check_safety ~equal ops =
  let ws = writes ops in
  let has_concurrent_write rd = List.exists (fun wr -> Op.concurrent wr rd) ws in
  List.filter_map
    (fun rd ->
      if has_concurrent_write rd then None
      else
        let k = last_preceding_write_index ws rd in
        match (Op.read_result rd, k) with
        | Some Op.Bottom, 0 -> None
        | Some Op.Bottom, k ->
            Some
              {
                read = rd;
                rule = "safety";
                detail =
                  Printf.sprintf
                    "returned bottom although wr%d precedes the read" k;
              }
        | Some (Op.Value x), 0 ->
            ignore x;
            Some
              {
                read = rd;
                rule = "safety";
                detail = "returned a value although no write precedes the read";
              }
        | Some (Op.Value x), k -> (
            match value_of_write ws k with
            | Some vk when equal vk x -> None
            | Some _ ->
                Some
                  {
                    read = rd;
                    rule = "safety";
                    detail =
                      Printf.sprintf
                        "returned a value different from val%d (the last \
                         preceding write)"
                        k;
                  }
            | None ->
                Some
                  {
                    read = rd;
                    rule = "safety";
                    detail = Printf.sprintf "internal: missing wr%d" k;
                  })
        | None, _ -> None)
    (complete_reads ops)

let check_regularity ~equal ops =
  let ws = writes ops in
  List.filter_map
    (fun rd ->
      let kmin = last_preceding_write_index ws rd in
      match Op.read_result rd with
      | Some Op.Bottom ->
          if kmin = 0 then None
          else
            Some
              {
                read = rd;
                rule = "regularity(2)";
                detail =
                  Printf.sprintf
                    "returned bottom although wr%d precedes the read" kmin;
              }
      | Some (Op.Value x) -> (
          match indices_of_value ~equal ws x with
          | [] ->
              Some
                {
                  read = rd;
                  rule = "regularity(1)";
                  detail = "returned a value that was never written";
                }
          | candidates ->
              let admissible (k, wr) =
                k >= kmin && (Op.precedes wr rd || Op.concurrent wr rd)
              in
              if List.exists admissible candidates then None
              else if List.exists (fun (k, _) -> k < kmin) candidates then
                Some
                  {
                    read = rd;
                    rule = "regularity(2)";
                    detail =
                      Printf.sprintf
                        "returned a stale value: every matching write has \
                         index < %d"
                        kmin;
                  }
              else
                Some
                  {
                    read = rd;
                    rule = "regularity(3)";
                    detail =
                      "returned a value whose write neither precedes nor is \
                       concurrent with the read";
                  })
      | None -> None)
    (complete_reads ops)

let observed_index ~equal ws rd =
  match Op.read_result rd with
  | Some Op.Bottom -> Some 0
  | Some (Op.Value x) -> (
      match indices_of_value ~equal ws x with
      | [ (k, _) ] -> Some k
      | [] -> None
      | _ :: _ :: _ ->
          invalid_arg
            "Checks.check_atomicity: duplicate write values make the \
             observed-write index ambiguous")
  | None -> None

let check_inversions ~equal ops =
  let ws = writes ops in
  let reads = complete_reads ops in
  List.concat_map
    (fun rd1 ->
      List.filter_map
        (fun rd2 ->
          if not (Op.precedes rd1 rd2) then None
          else
            match (observed_index ~equal ws rd1, observed_index ~equal ws rd2) with
            | Some k1, Some k2 when k1 > k2 ->
                Some
                  {
                    read = rd2;
                    rule = "atomicity(new-old inversion)";
                    detail =
                      Printf.sprintf
                        "read observed wr%d although a preceding read \
                         already observed wr%d"
                        k2 k1;
                  }
            | _ -> None)
        reads)
    reads

let check_atomicity ~equal ops =
  let regularity = check_regularity ~equal ops in
  regularity @ check_inversions ~equal ops

let check_wait_freedom ~quiescent ops =
  if not quiescent then []
  else
    List.filter_map
      (fun op ->
        if Op.is_complete op then None
        else
          let what =
            match op.Op.action with
            | Op.Read { reader; _ } -> Printf.sprintf "READ by r%d" reader
            | Op.Write { index; _ } -> Printf.sprintf "WRITE wr%d" index
          in
          Some
            {
              read = op;
              rule = "wait-freedom";
              detail =
                Printf.sprintf
                  "%s invoked at %d never completed although the event queue \
                   drained"
                  what op.Op.invoked_at;
            })
      ops

type claim = Safety | Regularity | Atomicity

let claim_name = function
  | Safety -> "safety"
  | Regularity -> "regularity"
  | Atomicity -> "atomicity"

type contract = { claim : claim; write_rounds : int; read_rounds : int option }

(* The automaton's own count: a retransmit or a widened round is not a
   round, and an open op, or one recorded without rounds, has none. *)
let check_rounds c ops =
  List.filter_map
    (fun op ->
      let bound =
        match op.Op.action with
        | Op.Write _ -> Some c.write_rounds
        | Op.Read _ -> c.read_rounds
      in
      match (op.Op.rounds, bound) with
      | Some r, Some bound when r > bound ->
          let detail = Printf.sprintf "took %d rounds, bound %d" r bound in
          Some { read = op; rule = "rounds"; detail }
      | _ -> None)
    ops

type 'v judgement = {
  safety : 'v violation list;
  regularity : 'v violation list;
  claimed : 'v violation list;
  rounds : 'v violation list;
  liveness : 'v violation list;
}

(* Each checker scans the history once, and the claim's violations come
   from those scans: atomicity is regularity plus its inversions. *)
let judge c ~equal ~quiescent ops =
  let safety = check_safety ~equal ops in
  let regularity = check_regularity ~equal ops in
  {
    safety;
    regularity;
    claimed =
      (match c.claim with
      | Safety -> safety
      | Regularity -> regularity
      | Atomicity -> regularity @ check_inversions ~equal ops);
    rounds = check_rounds c ops;
    liveness = check_wait_freedom ~quiescent ops;
  }

let is_safe ~equal ops = check_safety ~equal ops = []

let is_regular ~equal ops = check_regularity ~equal ops = []

let is_atomic ~equal ops = check_atomicity ~equal ops = []

let pp_violation ~pp_value ppf v =
  Format.fprintf ppf "%s: %a -- %s" v.rule (Op.pp ~pp_value) v.read v.detail
