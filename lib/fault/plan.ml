type proc = W | R of int | O of int

let proc_id = function
  | W -> Sim.Proc_id.Writer
  | R j -> Sim.Proc_id.Reader j
  | O i -> Sim.Proc_id.Obj i

let proc_to_string = function
  | W -> "w"
  | R j -> "r" ^ string_of_int j
  | O i -> "s" ^ string_of_int i

type byz_kind =
  | Mute
  | Forge
  | Replay
  | Simulate
  | Defame
  | Garbage
  | Flaky of { down_from : int; down_until : int }

let kind_to_string = function
  | Mute -> "mute"
  | Forge -> "forge"
  | Replay -> "replay"
  | Simulate -> "simulate"
  | Defame -> "defame"
  | Garbage -> "garbage"
  | Flaky { down_from; down_until } ->
      Printf.sprintf "flaky[%d,%d)" down_from down_until

type action =
  | Byz of { obj : int; kind : byz_kind }
  | Switch of { obj : int; at : int; kind : byz_kind }
  | Crash of { obj : int; at : int }
  | Recover of { obj : int; at : int; wipe : bool }
  | Block of { src : proc; dst : proc; from_ : int; until : int }
  | Isolate of { obj : int; from_ : int; until : int }
  | Duplicate of { src : proc; dst : proc; copies : int; from_ : int; until : int }

type t = { horizon : int; actions : action list }

let empty ~horizon = { horizon; actions = [] }

let length plan = List.length plan.actions

let action_to_string = function
  | Byz { obj; kind } -> Printf.sprintf "byz(s%d,%s)" obj (kind_to_string kind)
  | Switch { obj; at; kind } ->
      Printf.sprintf "switch(s%d@%d,%s)" obj at (kind_to_string kind)
  | Crash { obj; at } -> Printf.sprintf "crash(s%d@%d)" obj at
  | Recover { obj; at; wipe } ->
      Printf.sprintf "recover(s%d@%d,%s)" obj at (if wipe then "wiped" else "persisted")
  | Block { src; dst; from_; until } ->
      Printf.sprintf "block(%s->%s,[%d,%d))" (proc_to_string src)
        (proc_to_string dst) from_ until
  | Isolate { obj; from_; until } ->
      Printf.sprintf "isolate(s%d,[%d,%d))" obj from_ until
  | Duplicate { src; dst; copies; from_; until } ->
      Printf.sprintf "dup(%s->%s,x%d,[%d,%d))" (proc_to_string src)
        (proc_to_string dst) (1 + copies) from_ until

let to_compact plan =
  Printf.sprintf "horizon=%d [%s]" plan.horizon
    (String.concat "; " (List.map action_to_string plan.actions))

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan (horizon %d, %d actions)" plan.horizon
    (length plan);
  List.iter
    (fun a -> Format.fprintf ppf "@,  %s" (action_to_string a))
    plan.actions;
  Format.fprintf ppf "@]"

(* ----- budget accounting ------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* Objects whose behaviour may deviate arbitrarily from an honest
   automaton's: Byzantine from the start, switched mid-run, or restarted
   with wiped state (a wiped object "forgets" writes it acknowledged,
   which no crash-faulty object does). *)
let byzantine_objects plan =
  List.fold_left
    (fun acc -> function
      | Byz { obj; _ } | Switch { obj; _ } -> Int_set.add obj acc
      | Recover { obj; wipe = true; _ } -> Int_set.add obj acc
      | Recover _ | Crash _ | Block _ | Isolate _ | Duplicate _ -> acc)
    Int_set.empty plan.actions

(* Objects that are faulty at all: the Byzantine ones plus every object
   that crashes (even if it later recovers with persisted state — it
   lost messages while down, which a correct object never does). *)
let faulty_objects plan =
  List.fold_left
    (fun acc -> function
      | Crash { obj; _ } -> Int_set.add obj acc
      | Byz _ | Switch _ | Recover _ | Block _ | Isolate _ | Duplicate _ -> acc)
    (byzantine_objects plan) plan.actions

let well_formed ~cfg plan =
  let s = cfg.Quorum.Config.s in
  let obj_ok i = i >= 1 && i <= s in
  let proc_ok = function O i -> obj_ok i | W | R _ -> true in
  let window_ok from_ until = 0 <= from_ && from_ <= until && until <= plan.horizon in
  plan.horizon > 0
  && List.for_all
       (function
         | Byz { obj; _ } -> obj_ok obj
         | Switch { obj; at; _ } -> obj_ok obj && at >= 0 && at <= plan.horizon
         | Crash { obj; at } -> obj_ok obj && at >= 0 && at <= plan.horizon
         | Recover { obj; at; _ } -> obj_ok obj && at >= 0 && at <= plan.horizon
         | Block { src; dst; from_; until } ->
             proc_ok src && proc_ok dst && window_ok from_ until
         | Isolate { obj; from_; until } -> obj_ok obj && window_ok from_ until
         | Duplicate { src; dst; copies; from_; until } ->
             proc_ok src && proc_ok dst && copies >= 1 && window_ok from_ until)
       plan.actions

let within_budget ~cfg plan =
  well_formed ~cfg plan
  && Int_set.cardinal (byzantine_objects plan) <= cfg.Quorum.Config.b
  && Int_set.cardinal (faulty_objects plan) <= cfg.Quorum.Config.t

(* ----- random generation ------------------------------------------------ *)

type budget = { horizon : int; max_actions : int }

let small = { horizon = 800; max_actions = 4 }

let medium = { horizon = 1_500; max_actions = 8 }

let large = { horizon = 3_000; max_actions = 14 }

let budget_of_string = function
  | "small" -> Some small
  | "medium" -> Some medium
  | "large" -> Some large
  | _ -> None

(* Weighted toward the lying kinds (forge/simulate/garbage): omission
   faults rarely distinguish protocols, forgeries do. *)
let gen_kind ~rng ~horizon =
  match Sim.Prng.int rng ~bound:8 with
  | 0 -> Mute
  | 1 | 2 -> Forge
  | 3 -> Replay
  | 4 | 5 -> Simulate
  | 6 -> Garbage
  | _ ->
      let down_from = Sim.Prng.int rng ~bound:(horizon / 2) in
      let down_until =
        down_from + 1 + Sim.Prng.int rng ~bound:(horizon - down_from)
      in
      Flaky { down_from; down_until = min down_until horizon }

let gen_window ~rng ~horizon =
  let from_ = Sim.Prng.int rng ~bound:(max 1 (horizon - 20)) in
  let until = from_ + 1 + Sim.Prng.int rng ~bound:(max 1 (horizon - from_ - 1)) in
  (from_, min until horizon)

let gen_proc ~rng ~cfg ~readers =
  match Sim.Prng.int rng ~bound:(1 + readers + cfg.Quorum.Config.s) with
  | 0 -> W
  | k when k <= readers -> R k
  | k -> O (k - readers)

let gen ~rng ~cfg ~budget:{ horizon; max_actions } =
  let s = cfg.Quorum.Config.s
  and t = cfg.Quorum.Config.t
  and b = cfg.Quorum.Config.b in
  let readers = 2 in
  (* Pick the faulty cast first: nf <= t objects, of which nb <= b may lie. *)
  let objs = Array.init s (fun i -> i + 1) in
  Sim.Prng.shuffle rng objs;
  (* Bias toward spending the whole budget: a chaos campaign that mostly
     draws fault-free plans tests nothing. *)
  let maxed ~cap = if Sim.Prng.int rng ~bound:4 = 0 then Sim.Prng.int rng ~bound:(cap + 1) else cap in
  let nf = maxed ~cap:(min t s) in
  let nb = if b = 0 || nf = 0 then 0 else maxed ~cap:(min b nf) in
  let byz_actions =
    List.concat
      (List.init nb (fun k ->
           let obj = objs.(k) in
           match Sim.Prng.int rng ~bound:3 with
           | 0 -> [ Byz { obj; kind = gen_kind ~rng ~horizon } ]
           | 1 ->
               let at = Sim.Prng.int rng ~bound:horizon in
               [ Switch { obj; at; kind = gen_kind ~rng ~horizon } ]
           | _ ->
               let at = Sim.Prng.int rng ~bound:(horizon / 2) in
               let back = at + 1 + Sim.Prng.int rng ~bound:(horizon - at) in
               [
                 Crash { obj; at };
                 Recover { obj; at = min back horizon; wipe = true };
               ]))
  in
  let crash_actions =
    List.concat
      (List.init (nf - nb) (fun k ->
           let obj = objs.(nb + k) in
           let at = Sim.Prng.int rng ~bound:horizon in
           if Sim.Prng.bool rng && at < horizon - 1 then
             let back = at + 1 + Sim.Prng.int rng ~bound:(horizon - at - 1) in
             [ Crash { obj; at }; Recover { obj; at = back; wipe = false } ]
           else [ Crash { obj; at } ]))
  in
  let fault_actions = byz_actions @ crash_actions in
  let slots = max 0 (max_actions - List.length fault_actions) in
  let network_actions =
    List.init
      (if slots = 0 then 0 else Sim.Prng.int rng ~bound:(slots + 1))
      (fun _ ->
        match Sim.Prng.int rng ~bound:3 with
        | 0 ->
            let from_, until = gen_window ~rng ~horizon in
            Block
              {
                src = gen_proc ~rng ~cfg ~readers;
                dst = gen_proc ~rng ~cfg ~readers;
                from_;
                until;
              }
        | 1 ->
            let from_, until = gen_window ~rng ~horizon in
            Isolate { obj = 1 + Sim.Prng.int rng ~bound:s; from_; until }
        | _ ->
            let from_, until = gen_window ~rng ~horizon in
            Duplicate
              {
                src = gen_proc ~rng ~cfg ~readers;
                dst = gen_proc ~rng ~cfg ~readers;
                copies = 1 + Sim.Prng.int rng ~bound:2;
                from_;
                until;
              })
  in
  { horizon; actions = fault_actions @ network_actions }
