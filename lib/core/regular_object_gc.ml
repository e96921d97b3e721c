type t = { inner : Regular_object.t; readers : int; floors : int Ints.Map.t }

let init ~index ~readers =
  { inner = Regular_object.init ~index; readers; floors = Ints.Map.empty }

let index t = Regular_object.index t.inner

let history_length t = History_store.length (Regular_object.history t.inner)

let floor t ~reader = Option.value (Ints.Map.find_opt reader t.floors) ~default:0

let prune t =
  (* Collect only once every reader has revealed a cache floor. *)
  if Ints.Map.cardinal t.floors < t.readers then t
  else
    let min_floor = Ints.Map.fold (fun _ f acc -> min f acc) t.floors max_int in
    let keep_from = min min_floor (Regular_object.latest_complete_ts t.inner) in
    { t with inner = Regular_object.prune t.inner ~keep_from }

let handle t ~src msg =
  let inner, reply = Regular_object.handle t.inner ~src msg in
  match (msg, src) with
  | (Messages.Read1 { from_ts; _ } | Messages.Read2 { from_ts; _ }),
    Sim.Proc_id.Reader j ->
      (* A READ leaves the history as it was, so unless it records or
         raises its reader's floor the last prune still holds. *)
      let f = floor t ~reader:j in
      if from_ts <= f && Ints.Map.mem j t.floors then ({ t with inner }, reply)
      else
        ( prune
            { t with inner; floors = Ints.Map.add j (max from_ts f) t.floors },
          reply )
  | _ -> (prune { t with inner }, reply)
