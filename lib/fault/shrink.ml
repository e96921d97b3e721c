(* Delta-debugging for failing (seed, plan) pairs.

   Plans are small (<= ~14 actions), so a greedy one-at-a-time removal
   loop to fixpoint — O(n^2) runs — beats the classic ddmin bookkeeping
   and yields 1-minimal witnesses.  After removal converges we shrink
   the surviving actions' parameters: duplication down to one extra
   copy, windows halved, switches promoted to start-of-run Byzantine,
   wiped recoveries to persisted, crash times to 0.  Every candidate is
   accepted only if the violation still reproduces, so the result is a
   deterministic minimal witness for [repro]. *)

type outcome = {
  plan : Plan.t;
  attempts : int;  (** candidate plans tried *)
  reproductions : int;  (** candidates that still violated *)
}

let drop_nth actions n = List.filteri (fun i _ -> i <> n) actions

(* One simplification step per action, or None if already minimal. *)
let simplify_action = function
  | Plan.Byz _ -> None
  | Plan.Switch { obj; at; kind } ->
      if at > 0 then Some (Plan.Switch { obj; at = at / 2; kind })
      else Some (Plan.Byz { obj; kind })
  | Plan.Crash { obj; at } ->
      if at > 0 then Some (Plan.Crash { obj; at = at / 2 }) else None
  | Plan.Recover { obj; at; wipe } ->
      if wipe then Some (Plan.Recover { obj; at; wipe = false }) else None
  | Plan.Block { src; dst; from_; until } ->
      let width = until - from_ in
      if width > 1 then
        Some (Plan.Block { src; dst; from_; until = from_ + (width / 2) })
      else None
  | Plan.Isolate { obj; from_; until } ->
      let width = until - from_ in
      if width > 1 then
        Some (Plan.Isolate { obj; from_; until = from_ + (width / 2) })
      else None
  | Plan.Duplicate { src; dst; copies; from_; until } ->
      if copies > 1 then
        Some (Plan.Duplicate { src; dst; copies = copies - 1; from_; until })
      else
        let width = until - from_ in
        if width > 1 then
          Some
            (Plan.Duplicate
               { src; dst; copies; from_; until = from_ + (width / 2) })
        else None

let replace_nth actions n a = List.mapi (fun i x -> if i = n then a else x) actions

(* [repro] calls one shrink may make. *)
let max_attempts = 500

let minimize ~repro (plan : Plan.t) =
  if not (repro plan) then
    invalid_arg "Shrink.minimize: plan does not reproduce the violation";
  let attempts = ref 0 and reproductions = ref 0 in
  let try_plan candidate =
    if !attempts >= max_attempts then false
    else begin
      incr attempts;
      let ok = repro candidate in
      if ok then incr reproductions;
      ok
    end
  in
  (* Phase 1: remove actions one at a time until no single removal
     still reproduces (1-minimality). *)
  let rec remove_pass plan =
    let n = List.length plan.Plan.actions in
    let rec try_from i =
      if i >= n then plan
      else
        let candidate =
          { plan with Plan.actions = drop_nth plan.Plan.actions i }
        in
        if try_plan candidate then remove_pass candidate else try_from (i + 1)
    in
    try_from 0
  in
  (* Phase 2: shrink each surviving action's parameters to fixpoint. *)
  let rec simplify_pass plan =
    let n = List.length plan.Plan.actions in
    let rec try_from i progressed plan =
      if i >= n then if progressed then simplify_pass plan else plan
      else
        match simplify_action (List.nth plan.Plan.actions i) with
        | None -> try_from (i + 1) progressed plan
        | Some a ->
            let candidate =
              { plan with Plan.actions = replace_nth plan.Plan.actions i a }
            in
            if try_plan candidate then try_from i true candidate
            else try_from (i + 1) progressed plan
    in
    try_from 0 false plan
  in
  let minimal = simplify_pass (remove_pass plan) in
  { plan = minimal; attempts = !attempts; reproductions = !reproductions }
