type t = {
  index : int;
  ts : int;
  history : History_store.t;
  tsr : int Ints.Map.t;
}

let init ~index =
  { index; ts = 0; history = History_store.init; tsr = Ints.Map.empty }

let index t = t.index

let ts t = t.ts

let history t = t.history

let tsr t ~reader = Option.value (Ints.Map.find_opt reader t.tsr) ~default:0

let latest_complete ts entry acc =
  match entry.History_store.w with Some _ -> max acc ts | None -> acc

let latest_complete_ts t = History_store.fold latest_complete t.history 0

let prune t ~keep_from =
  { t with history = History_store.suffix t.history ~from_ts:keep_from }

let handle t ~src msg =
  match (msg, src) with
  | Messages.Pw { ts = ts'; pw = pw'; w = w' }, Sim.Proc_id.Writer ->
      (* Figure 5 lines 4-9. *)
      if ts' > t.ts then
        let history = History_store.on_pw t.history ~ts' ~pw' ~w' in
        let t = { t with ts = ts'; history } in
        (t, Some (Messages.Pw_ack { ts = t.ts; tsr = t.tsr }))
      else (t, None)
  | Messages.W { ts = ts'; pw = pw'; w = w' }, Sim.Proc_id.Writer ->
      (* Figure 5 lines 10-14. *)
      if ts' >= t.ts then
        let history = History_store.on_w t.history ~ts' ~pw' ~w' in
        let t = { t with ts = ts'; history } in
        (t, Some (Messages.W_ack { ts = t.ts }))
      else (t, None)
  | Messages.Read1 { tsr = tsr'; from_ts }, Sim.Proc_id.Reader j
  | Messages.Read2 { tsr = tsr'; from_ts }, Sim.Proc_id.Reader j ->
      (* Figure 5 lines 15-19, with the §5.1 suffix pruning. *)
      if tsr' > tsr t ~reader:j then
        let t = { t with tsr = Ints.Map.add j tsr' t.tsr } in
        let suffix = History_store.suffix t.history ~from_ts in
        let ack =
          match msg with
          | Messages.Read1 _ ->
              Messages.Read1_ack_h { tsr = tsr'; history = suffix }
          | _ -> Messages.Read2_ack_h { tsr = tsr'; history = suffix }
        in
        (t, Some ack)
      else (t, None)
  | _ -> (t, None)
