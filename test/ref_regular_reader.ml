(* The regular reader (Figure 6) as it stood before its decision was
   made incremental: every reply rebuilt the responder sets, tuple lists
   and conflict graph.  Kept verbatim as the oracle of
   [Suite_reader_oracle]; not used by the library. *)

open Core

type round_data = {
  ts_fr : int;
  c : Wtuple.Set.t;
  hist1 : History_store.t Ints.Map.t;  (* history[1][i] *)
  hist2 : History_store.t Ints.Map.t;  (* history[2][i] *)
}

type phase = Idle | Round1 of round_data | Round2 of round_data

type t = {
  cfg : Quorum.Config.t;
  j : int;
  tsr' : int;
  cached : bool;
  cache : Tsval.t;
  stale : bool;
  phase : phase;
}

type event =
  | Broadcast of Messages.t
  | Return of { value : Value.t; rounds : int }

let init ~cfg ~j ~cached () =
  { cfg; j; tsr' = 0; cached; cache = Tsval.init; stale = false; phase = Idle }

let reader_index t = t.j

let tsr t = t.tsr'

let cache t = t.cache

let is_idle t = match t.phase with Idle -> true | Round1 _ | Round2 _ -> false

let quorum t = Quorum.Config.quorum t.cfg

let invalid_threshold t = t.cfg.Quorum.Config.t + t.cfg.Quorum.Config.b + 1

let safe_threshold t = t.cfg.Quorum.Config.b + 1

let from_ts t = if t.cached then t.cache.Tsval.ts else 0

(* Transport hook: a connection to a base object was re-established
   (reconnect, or server restart).  The object behind it may have been
   wiped, so the suffix it would ship for our cached timestamp can no
   longer be trusted to carry every entry we pruned client-side.  Reset
   the cache so the next read asks for the full history (from_ts = 0).
   Mid-operation we only mark the cache stale: the in-flight read still
   needs [t.cache] for the §5.1 empty-candidate fallback, and dropping it
   now would return ⊥ for a value that was legitimately read — the flag
   is consumed by the next [start_read] instead. *)
let on_reconnect t =
  if not t.cached then t
  else
    match t.phase with
    | Idle -> { t with cache = Tsval.init; stale = false }
    | Round1 _ | Round2 _ -> { t with stale = true }

let start_read t =
  match t.phase with
  | Round1 _ | Round2 _ -> Error "read already in progress"
  | Idle ->
      let t =
        if t.stale then { t with cache = Tsval.init; stale = false } else t
      in
      let tsr' = t.tsr' + 1 in
      let data =
        {
          ts_fr = tsr';
          c = Wtuple.Set.empty;
          hist1 = Ints.Map.empty;
          hist2 = Ints.Map.empty;
        }
      in
      Ok
        ( { t with tsr'; phase = Round1 data },
          Messages.Read1 { tsr = tsr'; from_ts = from_ts t } )

(* The entry object [i] reported for timestamp [ts] in the given round's
   history map; [None] when the object has not responded in that round. *)
let entry_of hist_map i ~ts =
  Option.map (fun h -> History_store.find h ~ts) (Ints.Map.find_opt i hist_map)

(* A responding object contradicts candidate [c] when its entry at c's
   timestamp is missing, has nil w, or deviates in pw or w (Fig. 6 line 2). *)
let deviates hist_map i c =
  match entry_of hist_map i ~ts:(Wtuple.ts c) with
  | None -> false  (* no response in this round: does not count *)
  | Some None -> true  (* entry missing: <nil, nil> *)
  | Some (Some { History_store.pw; w }) -> (
      (not (Tsval.equal pw c.Wtuple.tsval))
      || match w with None -> true | Some w' -> not (Wtuple.equal w' c))

(* A responding object vouches for [c] when its entry at c's timestamp
   matches in pw or in w (Fig. 6 line 3). *)
let vouches hist_map i c =
  match entry_of hist_map i ~ts:(Wtuple.ts c) with
  | None | Some None -> false
  | Some (Some { History_store.pw; w }) -> (
      Tsval.equal pw c.Wtuple.tsval
      || match w with None -> false | Some w' -> Wtuple.equal w' c)

let all_responders data =
  Ints.Set.union
    (Ints.Set.of_list (List.map fst (Ints.Map.bindings data.hist1)))
    (Ints.Set.of_list (List.map fst (Ints.Map.bindings data.hist2)))

let count_objects data pred =
  Ints.Set.cardinal (Ints.Set.filter pred (all_responders data))

let is_invalid t data c =
  count_objects data (fun i -> deviates data.hist1 i c || deviates data.hist2 i c)
  >= invalid_threshold t

let is_safe t data c =
  count_objects data (fun i -> vouches data.hist1 i c || vouches data.hist2 i c)
  >= safe_threshold t

let eliminate t data =
  { data with c = Wtuple.Set.filter (fun c -> not (is_invalid t data c)) data.c }

(* conflict(i,k) (Fig. 6 line 1): object k's round-1 history contains a
   candidate whose matrix defames object i. *)
let conflict t data ~i ~k =
  match Ints.Map.find_opt k data.hist1 with
  | None -> false
  | Some h ->
      List.exists
        (fun c ->
          Wtuple.Set.mem c data.c
          && Tsr_matrix.exceeds c.Wtuple.tsrarray ~obj:i ~reader:t.j
               ~bound:data.ts_fr)
        (History_store.tuples h)

let rec coverable edges budget =
  match edges with
  | [] -> true
  | _ when budget = 0 -> false
  | (i, k) :: rest ->
      let drop v = List.filter (fun (a, b) -> a <> v && b <> v) rest in
      coverable (drop i) (budget - 1) || coverable (drop k) (budget - 1)

let round1_complete t data =
  let members = List.map fst (Ints.Map.bindings data.hist1) in
  let self_conflicted =
    List.filter (fun i -> conflict t data ~i ~k:i) members
  in
  let rest = List.filter (fun i -> not (List.mem i self_conflicted)) members in
  let slack = List.length members - List.length self_conflicted - quorum t in
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

let high_candidate data c =
  Wtuple.Set.mem c data.c
  && not (Wtuple.Set.exists (fun c' -> Wtuple.ts c' > Wtuple.ts c) data.c)

let decided_rounds data = if Ints.Map.is_empty data.hist2 then 1 else 2

(* Figure 6 lines 14-16 (+ §5.1 cache fallback): return the highest safe
   candidate, or the cached value once the candidate set is empty and a
   full quorum has answered round 2. *)
let try_decide t data =
  let winners =
    Wtuple.Set.filter (fun c -> high_candidate data c && is_safe t data c) data.c
  in
  match Wtuple.Set.min_elt_opt winners with
  | Some cret ->
      let t =
        if t.cached then { t with cache = cret.Wtuple.tsval } else t
      in
      Some (t, Return { value = Wtuple.value cret; rounds = decided_rounds data })
  | None ->
      if
        Wtuple.Set.is_empty data.c
        && Ints.Map.cardinal data.hist2 >= quorum t
      then
        Some
          (t, Return { value = t.cache.Tsval.v; rounds = decided_rounds data })
      else None

let on_message t ~obj msg =
  match (t.phase, msg) with
  | Round1 data, Messages.Read1_ack_h { tsr; history }
    when tsr = data.ts_fr && not (Ints.Map.mem obj data.hist1) ->
      (* Figure 6 lines 17-21. *)
      let data =
        {
          data with
          hist1 = Ints.Map.add obj history data.hist1;
          c =
            List.fold_left
              (fun c w -> Wtuple.Set.add w c)
              data.c (History_store.tuples history);
        }
      in
      let data = eliminate t data in
      if round1_complete t data then begin
        let tsr' = t.tsr' + 1 in
        let read2 = Messages.Read2 { tsr = tsr'; from_ts = from_ts t } in
        let t = { t with tsr'; phase = Round2 data } in
        (* Round-1 evidence already decides when the highest surviving
           candidate has b+1 vouchers, at every S >= 2t+b+1: a write
           that completed before the read meets these S-t responders in
           S-2t >= b+1 objects, so its tuple (or a newer one) keeps at
           most t+b dissenters and cannot be dropped.  Proposition 1
           only says that below 2t+2b+1 some read — one facing a lie or
           an overlapping write — falls through to round 2. *)
        match try_decide t data with
        | Some (t, decision) ->
            ({ t with phase = Idle }, [ Broadcast read2; decision ])
        | None -> (t, [ Broadcast read2 ])
      end
      else ({ t with phase = Round1 data }, [])
  | Round2 data, Messages.Read2_ack_h { tsr; history }
    when tsr = data.ts_fr + 1 && not (Ints.Map.mem obj data.hist2) ->
      (* Figure 6 lines 22-25. *)
      let data = { data with hist2 = Ints.Map.add obj history data.hist2 } in
      let data = eliminate t data in
      let t = { t with phase = Round2 data } in
      (match try_decide t data with
      | Some (t, decision) -> ({ t with phase = Idle }, [ decision ])
      | None -> (t, []))
  | (Idle | Round1 _ | Round2 _), _ -> (t, [])

let candidates t =
  match t.phase with
  | Idle -> Wtuple.Set.empty
  | Round1 data | Round2 data -> data.c

let responders hist_map =
  Ints.Set.of_list (List.map fst (Ints.Map.bindings hist_map))

let responded_round1 t =
  match t.phase with
  | Idle -> Ints.Set.empty
  | Round1 data | Round2 data -> responders data.hist1

let responded_round2 t =
  match t.phase with
  | Idle -> Ints.Set.empty
  | Round1 data | Round2 data -> responders data.hist2
