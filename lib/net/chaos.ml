type direction = To_server | To_client

type action = Drop | Delay of int | Duplicate of int | Corrupt

type rule = {
  dir : direction;
  sender : Sim.Proc_id.t option;
  from_us : int;
  until_us : int;
  act : action;
}

type fate = { drop : bool; corrupt : bool; delay_us : int; copies : int }

let fate rules dir ~sender ~now_us =
  let applies r =
    r.dir = dir && r.from_us <= now_us && now_us < r.until_us
    && (r.sender = None || r.sender = sender)
  in
  List.fold_left
    (fun f r ->
      if not (applies r) then f
      else
        match r.act with
        | Drop -> { f with drop = true }
        | Corrupt -> { f with corrupt = true }
        | Delay d -> { f with delay_us = f.delay_us + d }
        | Duplicate c -> { f with copies = f.copies + c })
    { drop = false; corrupt = false; delay_us = 0; copies = 0 }
    rules
