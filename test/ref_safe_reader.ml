(* The safe reader (Figure 4) as it stood before its round-1 test gained
   the quorum gate and the no-defamation short-cut.  Kept verbatim as the
   oracle of [Suite_reader_oracle]; not used by the library. *)

open Core

type round_data = {
  ts_fr : int;  (* tsrFR: the reader's timestamp in round 1 *)
  c : Wtuple.Set.t;  (* candidate set C *)
  first_rw : Ints.Set.t Wtuple.Map.t;  (* FirstRW *)
  rw : Ints.Set.t Wtuple.Map.t;  (* RW *)
  rpw : Ints.Set.t Tsval.Map.t;  (* RPW *)
  resp1 : Ints.Set.t;  (* Resp1 *)
  resp2 : Ints.Set.t;
}

type phase = Idle | Round1 of round_data | Round2 of round_data

type knobs = {
  conflict_detection : bool;
  elimination : bool;
  vouchers : int option;  (* overrides the b+1 safety threshold *)
}

type t = {
  cfg : Quorum.Config.t;
  j : int;
  tsr' : int;
  phase : phase;
  knobs : knobs;
}

type event =
  | Broadcast of Messages.t
  | Return of { value : Value.t; rounds : int }

let default_knobs =
  { conflict_detection = true; elimination = true; vouchers = None }

let init ?(knobs = default_knobs) ~cfg ~j () =
  { cfg; j; tsr' = 0; phase = Idle; knobs }

let reader_index t = t.j

let tsr t = t.tsr'

let is_idle t = match t.phase with Idle -> true | Round1 _ | Round2 _ -> false

let quorum t = Quorum.Config.quorum t.cfg

let elimination_threshold t = t.cfg.Quorum.Config.t + t.cfg.Quorum.Config.b + 1

let safety_threshold t =
  match t.knobs.vouchers with
  | Some n -> n
  | None -> t.cfg.Quorum.Config.b + 1

let start_read t =
  match t.phase with
  | Round1 _ | Round2 _ -> Error "read already in progress"
  | Idle ->
      (* Figure 4 lines 7-10. *)
      let tsr' = t.tsr' + 1 in
      let data =
        {
          ts_fr = tsr';
          c = Wtuple.Set.empty;
          first_rw = Wtuple.Map.empty;
          rw = Wtuple.Map.empty;
          rpw = Tsval.Map.empty;
          resp1 = Ints.Set.empty;
          resp2 = Ints.Set.empty;
        }
      in
      Ok
        ( { t with tsr'; phase = Round1 data },
          Messages.Read1 { tsr = tsr'; from_ts = 0 } )

let add_to_multimap add_empty find key obj map =
  match find key map with
  | None -> add_empty key (Ints.Set.singleton obj) map
  | Some set -> add_empty key (Ints.Set.add obj set) map

let add_rw = add_to_multimap Wtuple.Map.add Wtuple.Map.find_opt

let add_rpw = add_to_multimap Tsval.Map.add Tsval.Map.find_opt

(* RespondedWO(c) = { i : exists c' <> c with i in RW(c') } (Fig. 4 line 2). *)
let responded_without data c =
  Wtuple.Map.fold
    (fun c' objs acc ->
      if Wtuple.equal c' c then acc else Ints.Set.union objs acc)
    data.rw Ints.Set.empty

(* Figure 4 lines 27-28: drop candidates with >= t+b+1 dissenters. *)
let eliminate t data =
  if not t.knobs.elimination then data
  else
    let keep c =
      Ints.Set.cardinal (responded_without data c) < elimination_threshold t
    in
    { data with c = Wtuple.Set.filter keep data.c }

(* conflict(i,k) (Fig. 4 line 1): some candidate that k reported in round 1
   claims i told the writer a timestamp of reader j above tsrFR. *)
let conflict t data ~i ~k =
  t.knobs.conflict_detection
  && Wtuple.Set.exists
    (fun c ->
      let first_reporters =
        Option.value (Wtuple.Map.find_opt c data.first_rw)
          ~default:Ints.Set.empty
      in
      Ints.Set.mem k first_reporters
      && Tsr_matrix.exceeds c.Wtuple.tsrarray ~obj:i ~reader:t.j
           ~bound:data.ts_fr)
    data.c

(* Exact minimum-vertex-cover search: returns true iff at most [budget]
   vertices can be deleted to kill every edge. *)
let rec coverable edges budget =
  match edges with
  | [] -> true
  | _ when budget = 0 -> false
  | (i, k) :: rest ->
      let drop v = List.filter (fun (a, b) -> a <> v && b <> v) rest in
      coverable (drop i) (budget - 1) || coverable (drop k) (budget - 1)

(* Figure 4 line 11: does Resp1 contain a conflict-free subset of size
   >= s - t?  Self-conflicting objects are forced out; among the rest we
   need a vertex cover of size <= slack. *)
let round1_complete t data =
  let members = Ints.Set.elements data.resp1 in
  let self_conflicted =
    List.filter (fun i -> conflict t data ~i ~k:i) members
  in
  let rest = List.filter (fun i -> not (List.mem i self_conflicted)) members in
  let slack =
    Ints.Set.cardinal data.resp1 - List.length self_conflicted - quorum t
  in
  if slack < 0 then false
  else
    let edges =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun k ->
              if i < k && (conflict t data ~i ~k || conflict t data ~i:k ~k:i)
              then Some (i, k)
              else None)
            rest)
        rest
    in
    coverable edges slack

(* safe(c) (Fig. 4 line 3): objects vouching for c — reporting c (or a
   higher-timestamped tuple) in w, or c.tsval (or a higher-timestamped
   pair) in pw. *)
let supporters data c =
  let cts = Wtuple.ts c in
  let from_rw =
    Wtuple.Map.fold
      (fun c' objs acc ->
        if Wtuple.equal c' c || Wtuple.ts c' > cts then Ints.Set.union objs acc
        else acc)
      data.rw Ints.Set.empty
  in
  Tsval.Map.fold
    (fun pv objs acc ->
      if Tsval.equal pv c.Wtuple.tsval || pv.Tsval.ts > cts then
        Ints.Set.union objs acc
      else acc)
    data.rpw from_rw

let is_safe t data c = Ints.Set.cardinal (supporters data c) >= safety_threshold t

let high_candidate data c =
  Wtuple.Set.mem c data.c
  && not (Wtuple.Set.exists (fun c' -> Wtuple.ts c' > Wtuple.ts c) data.c)

(* Figure 4 lines 14-19: the round-2 exit condition and returned value. *)
let try_decide t data =
  if Wtuple.Set.is_empty data.c then
    let rounds = if Ints.Set.is_empty data.resp2 then 1 else 2 in
    Some (Return { value = Value.bottom; rounds })
  else
    let winners =
      Wtuple.Set.filter (fun c -> high_candidate data c && is_safe t data c) data.c
    in
    match Wtuple.Set.min_elt_opt winners with
    | None -> None
    | Some cret ->
        let rounds = if Ints.Set.is_empty data.resp2 then 1 else 2 in
        Some (Return { value = Wtuple.value cret; rounds })

let on_message t ~obj msg =
  match (t.phase, msg) with
  | Round1 data, Messages.Read1_ack { tsr; pw = pw'; w = w' }
    when tsr = data.ts_fr && not (Ints.Set.mem obj data.resp1) ->
      (* Figure 4 lines 21-24 then the elimination rule. *)
      let data =
        {
          data with
          first_rw = add_rw w' obj data.first_rw;
          rw = add_rw w' obj data.rw;
          rpw = add_rpw pw' obj data.rpw;
          c = Wtuple.Set.add w' data.c;
          resp1 = Ints.Set.add obj data.resp1;
        }
      in
      let data = eliminate t data in
      if round1_complete t data then begin
        (* Figure 4 lines 12-13, then check line 14 immediately: round-1
           information alone may already make a candidate safe. *)
        let tsr' = t.tsr' + 1 in
        let read2 = Messages.Read2 { tsr = tsr'; from_ts = 0 } in
        let t = { t with tsr'; phase = Round2 data } in
        match try_decide t data with
        | Some decision -> ({ t with phase = Idle }, [ Broadcast read2; decision ])
        | None -> (t, [ Broadcast read2 ])
      end
      else ({ t with phase = Round1 data }, [])
  | Round2 data, Messages.Read2_ack { tsr; pw = pw'; w = w' }
    when tsr = data.ts_fr + 1 && not (Ints.Set.mem obj data.resp2) ->
      (* Figure 4 lines 25-26 then the elimination rule. *)
      let data =
        {
          data with
          rw = add_rw w' obj data.rw;
          rpw = add_rpw pw' obj data.rpw;
          resp2 = Ints.Set.add obj data.resp2;
        }
      in
      let data = eliminate t data in
      let t = { t with phase = Round2 data } in
      (match try_decide t data with
      | Some decision -> ({ t with phase = Idle }, [ decision ])
      | None -> (t, []))
  | (Idle | Round1 _ | Round2 _), _ -> (t, [])

let candidates t =
  match t.phase with
  | Idle -> Wtuple.Set.empty
  | Round1 data | Round2 data -> data.c

let responded_round1 t =
  match t.phase with
  | Idle -> Ints.Set.empty
  | Round1 data | Round2 data -> data.resp1

let responded_round2 t =
  match t.phase with
  | Idle -> Ints.Set.empty
  | Round1 data | Round2 data -> data.resp2

module Private = struct
  let coverable = coverable
end
