(* Differential test of the readers' per-reply decisions.  The library's
   Regular_reader (Figure 6) and Safe_reader (Figure 4) decide
   incrementally; Ref_regular_reader and Ref_safe_reader are their
   earlier versions, which rebuild every responder set, tuple list and
   conflict graph on every reply.  Both sides are driven with the same
   steps, and after every step their events, [is_idle], [tsr],
   candidates, responded sets and (regular reader) [cache] must agree.

   The generator covers t in {1, 2}, b <= t, S from 2t+b+1 to 2t+2b+2,
   reader ids 1-3, cached and uncached regular readers, default and
   ablated safe readers; histories with nil w, mismatched pw and swapped
   tuples; matrices whose reader entries sometimes exceed the read's
   round-1 timestamp (so the conflict graph and the vertex-cover search
   run); stale, current and future reply timestamps; round-1 and round-2
   replies from repeated and out-of-range objects; and reconnects. *)

open Core

(* ----- trial description ------------------------------------------------ *)

(* How a reply's entry for pool tuple [c] relates to [c]. *)
type entry_kind =
  | Honest  (* <c.tsval, c>: vouches *)
  | Pending  (* <c.tsval, nil>: vouches and dissents *)
  | Pw_mismatch  (* <other pw, c>: vouches and dissents *)
  | W_swapped  (* <c.tsval, another tuple> *)

type ack = {
  round : int;  (* 1 or 2 *)
  obj : int;  (* 1..S, or S+1: no object of the configuration *)
  shift : int;  (* the reply's tsr against the round's: -1, 0 or +1 *)
  from_init : bool;  (* the history starts from History_store.init *)
  entries : (int * entry_kind) list;  (* pool index, entry kind *)
}

type step = Start | Reconnect | Ack of ack

type trial = {
  t : int;
  b : int;
  s : int;
  j : int;
  cached : bool;
  knobs : Safe_reader.knobs;
  pool : Wtuple.t array;  (* pool.(0) is w0 *)
  steps : step list;
}

let kind_name = function
  | Honest -> "honest"
  | Pending -> "pending"
  | Pw_mismatch -> "pw-mismatch"
  | W_swapped -> "w-swapped"

let print_trial tr =
  let step = function
    | Start -> "start"
    | Reconnect -> "reconnect"
    | Ack a ->
        Printf.sprintf "ack%d(obj=%d,shift=%d,%s[%s])" a.round a.obj a.shift
          (if a.from_init then "init+" else "")
          (String.concat ";"
             (List.map
                (fun (k, kind) -> Printf.sprintf "%d:%s" k (kind_name kind))
                a.entries))
  in
  Format.asprintf
    "t=%d b=%d S=%d j=%d cached=%b knobs=(%b,%b,%s)@.pool: %a@.steps: %s" tr.t
    tr.b tr.s tr.j tr.cached tr.knobs.conflict_detection tr.knobs.elimination
    (match tr.knobs.vouchers with None -> "-" | Some n -> string_of_int n)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Wtuple.pp)
    (Array.to_list tr.pool)
    (String.concat " " (List.map step tr.steps))

(* ----- generators -------------------------------------------------------- *)

open QCheck.Gen

(* Rows for objects 1..s, entries for readers 1..3.  Most matrices hold
   only low timestamps; some put a reader's timestamp high enough to
   defame objects of a read in progress. *)
let gen_matrix ~s =
  let row hi =
    let+ entries = list_size (0 -- 3) (pair (1 -- 3) (0 -- hi)) in
    List.fold_left (fun r (j, ts) -> Ints.Map.add j ts r) Ints.Map.empty entries
  in
  let rows hi =
    let+ rows = list_size (0 -- s) (pair (1 -- s) (row hi)) in
    List.fold_left
      (fun m (obj, r) -> Tsr_matrix.set_row m ~obj r)
      Tsr_matrix.empty rows
  in
  frequency [ (4, return Tsr_matrix.empty); (3, rows 1); (3, rows 9) ]

let gen_tuple ~s =
  let+ ts = 1 -- 3
  and+ v = oneofl [ Value.v "a"; Value.v "b"; Value.bottom ]
  and+ tsrarray = gen_matrix ~s in
  Wtuple.make ~tsval:(Tsval.make ~ts ~v) ~tsrarray

let gen_kind =
  frequencyl [ (7, Honest); (1, Pending); (1, Pw_mismatch); (1, W_swapped) ]

let gen_ack ~s ~pool_size =
  let+ round = frequencyl [ (1, 1); (1, 2) ]
  and+ obj = 1 -- (s + 1)
  and+ shift = frequencyl [ (8, 0); (1, -1); (1, 1) ]
  and+ from_init = frequencyl [ (4, true); (1, false) ]
  and+ entries = list_size (0 -- 2) (pair (0 -- (pool_size - 1)) gen_kind) in
  Ack { round; obj; shift; from_init; entries }

let gen_trial =
  let* t = 1 -- 2 in
  let* b = 0 -- t in
  (* Optimal resilience, where reads fall through to round 2, half the
     time. *)
  let* s =
    frequency
      [
        (1, return ((2 * t) + b + 1));
        (1, (2 * t) + b + 1 -- ((2 * t) + (2 * b) + 2));
      ]
  in
  let* j = 1 -- 3 in
  let* cached = bool in
  let* knobs =
    frequency
      [
        (4, return Safe_reader.default_knobs);
        ( 1,
          let+ conflict_detection = bool
          and+ elimination = bool
          and+ vouchers = opt (1 -- 3) in
          { Safe_reader.conflict_detection; elimination; vouchers } );
      ]
  in
  let* tuples = list_size (1 -- 3) (gen_tuple ~s) in
  let pool = Array.of_list (Wtuple.init :: tuples) in
  let pool_size = Array.length pool in
  let+ steps =
    list_size (10 -- 50)
      (frequency
         [
           (3, return Start);
           (1, return Reconnect);
           (16, gen_ack ~s ~pool_size);
         ])
  in
  { t; b; s; j; cached; knobs; pool; steps }

let arb_trial = QCheck.make ~print:print_trial gen_trial

(* ----- replies ----------------------------------------------------------- *)

let entry tr (k, kind) =
  let c = tr.pool.(k) in
  let other = tr.pool.((k + 1) mod Array.length tr.pool) in
  match kind with
  | Honest -> { History_store.pw = c.Wtuple.tsval; w = Some c }
  | Pending -> { History_store.pw = c.Wtuple.tsval; w = None }
  | Pw_mismatch ->
      {
        History_store.pw = Tsval.make ~ts:(Wtuple.ts c) ~v:(Value.v "forged");
        w = Some c;
      }
  | W_swapped -> { History_store.pw = c.Wtuple.tsval; w = Some other }

let history tr a =
  List.fold_left
    (fun h ((k, _) as e) ->
      History_store.set h ~ts:(Wtuple.ts tr.pool.(k)) (entry tr e))
    (if a.from_init then History_store.init else History_store.empty)
    a.entries

(* A safe reply is one <pw, w> pair: the first entry's, or w0's. *)
let pair tr a =
  match a.entries with
  | e :: _ ->
      let { History_store.pw; w } = entry tr e in
      (pw, Option.value w ~default:Wtuple.init)
  | [] -> (Tsval.init, Wtuple.init)

(* ----- comparison -------------------------------------------------------- *)

type stats = {
  mutable decisions : int;
  mutable two_round : int;
  mutable conflict_held : int;  (* a round-1 quorum held open by conflicts *)
}

let stats () = { decisions = 0; two_round = 0; conflict_held = 0 }

let msg_info = Messages.info

let mismatch tr n what expected got =
  QCheck.Test.fail_reportf
    "step %d: %s differs@.reference: %s@.library:   %s@.%s" n what expected
    got (print_trial tr)

let check tr n what show eq expected got =
  if not (eq expected got) then mismatch tr n what (show expected) (show got)

let set_info s = Format.asprintf "%a" Ints.pp_set s

let cands_info s =
  Format.asprintf "{%a}"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Wtuple.pp)
    (Wtuple.Set.elements s)

let tsval_info tv = Format.asprintf "%a" Tsval.pp tv

(* Events of either reader in one shape: a broadcast's message, or a
   returned value with its round count. *)
type ev = B of string | R of Value.t * int

let ev_info = function
  | B m -> "broadcast " ^ m
  | R (v, r) -> Printf.sprintf "return %s in %d" (Value.to_string v) r

let evs_info l = "[" ^ String.concat "; " (List.map ev_info l) ^ "]"

let evs_equal a b =
  List.equal
    (fun x y ->
      match (x, y) with
      | B m, B m' -> String.equal m m'
      | R (v, r), R (v', r') -> Value.equal v v' && r = r'
      | B _, R _ | R _, B _ -> false)
    a b

(* [held]: the step added a round-1 reply to a quorum's worth, yet round
   1 stays open — only conflicts do that. *)
let tally st ~held evs =
  List.iter
    (function
      | R (_, r) ->
          st.decisions <- st.decisions + 1;
          if r = 2 then st.two_round <- st.two_round + 1
      | B _ -> ())
    evs;
  if held then st.conflict_held <- st.conflict_held + 1

(* What a trial needs of either reader. *)
module type READER = sig
  type t
  type event

  val start_read : t -> (t * Messages.t, string) result
  val on_message : t -> obj:int -> Messages.t -> t * event list
  val is_idle : t -> bool
  val tsr : t -> int
  val candidates : t -> Wtuple.Set.t
  val responded_round1 : t -> Ints.Set.t
  val responded_round2 : t -> Ints.Set.t
  val ev : event -> ev
end

(* Runs one trial on both readers: [R] is the reader under test, [O]
   the oracle. *)
module Drive (R : READER) (O : READER) = struct
  let same tr n (r : R.t) (o : O.t) =
    check tr n "is_idle" string_of_bool Bool.equal (O.is_idle o) (R.is_idle r);
    check tr n "tsr" string_of_int Int.equal (O.tsr o) (R.tsr r);
    check tr n "candidates" cands_info Wtuple.Set.equal (O.candidates o)
      (R.candidates r);
    check tr n "responded_round1" set_info Ints.Set.equal
      (O.responded_round1 o) (R.responded_round1 r);
    check tr n "responded_round2" set_info Ints.Set.equal
      (O.responded_round2 o) (R.responded_round2 r)

  (* [round1 o]: the oracle is in round 1, with round-1 timestamp
     [ts_fr o]; [reply] builds the message of an ack step; [extra]
     compares what only one reader kind has, and [reconnect] applies a
     reconnect to both sides. *)
  let run ~q ~round1 ~ts_fr ~reply ~extra ~reconnect st tr (r0 : R.t)
      (o0 : O.t) =
    let step (n, r, o) s =
      let r, o =
        match s with
        | Start ->
            let rr = R.start_read r and ro = O.start_read o in
            let info = function
              | Ok (_, m) -> "Ok " ^ msg_info m
              | Error e -> "Error " ^ e
            in
            check tr n "start_read" Fun.id String.equal (info ro) (info rr);
            ( (match rr with Ok (r, _) -> r | Error _ -> r),
              match ro with Ok (o, _) -> o | Error _ -> o )
        | Reconnect -> reconnect r o
        | Ack a ->
            let m = reply a (ts_fr o) in
            let before = Ints.Set.cardinal (O.responded_round1 o) in
            let r, er = R.on_message r ~obj:a.obj m in
            let o, eo = O.on_message o ~obj:a.obj m in
            let er = List.map R.ev er and eo = List.map O.ev eo in
            check tr n "events" evs_info evs_equal eo er;
            let resp1 = Ints.Set.cardinal (O.responded_round1 o) in
            tally st ~held:(round1 o && resp1 > before && resp1 >= q) eo;
            (r, o)
      in
      same tr n r o;
      extra tr n r o;
      (n + 1, r, o)
    in
    ignore (List.fold_left step (0, r0, o0) tr.steps);
    true
end

(* ----- the regular reader ------------------------------------------------ *)

module New_regular = struct
  include Regular_reader

  let ev = function
    | Broadcast m -> B (msg_info m)
    | Return { value; rounds } -> R (value, rounds)
end

module Old_regular = struct
  include Ref_regular_reader

  let ev = function
    | Broadcast m -> B (msg_info m)
    | Return { value; rounds } -> R (value, rounds)
end

module Regular_drive = Drive (New_regular) (Old_regular)

let regular_trial st tr =
  let cfg = Quorum.Config.make_exn ~s:tr.s ~t:tr.t ~b:tr.b in
  let round1 (o : Ref_regular_reader.t) =
    match o.phase with Ref_regular_reader.Round1 _ -> true | _ -> false
  in
  let ts_fr (o : Ref_regular_reader.t) =
    match o.phase with
    | Ref_regular_reader.Round1 d | Round2 d -> d.ts_fr
    | Idle -> o.tsr'
  in
  let reply a ts_fr =
    let history = history tr a in
    if a.round = 1 then Messages.Read1_ack_h { tsr = ts_fr + a.shift; history }
    else Messages.Read2_ack_h { tsr = ts_fr + 1 + a.shift; history }
  in
  let extra tr n r o =
    check tr n "cache" tsval_info Tsval.equal (Ref_regular_reader.cache o)
      (Regular_reader.cache r)
  in
  let reconnect r o =
    (Regular_reader.on_reconnect r, Ref_regular_reader.on_reconnect o)
  in
  Regular_drive.run ~q:(Quorum.Config.quorum cfg) ~round1 ~ts_fr ~reply ~extra
    ~reconnect st tr
    (Regular_reader.init ~cfg ~j:tr.j ~cached:tr.cached ())
    (Ref_regular_reader.init ~cfg ~j:tr.j ~cached:tr.cached ())

(* ----- the safe reader --------------------------------------------------- *)

module New_safe = struct
  include Safe_reader

  let ev = function
    | Broadcast m -> B (msg_info m)
    | Return { value; rounds } -> R (value, rounds)
end

module Old_safe = struct
  include Ref_safe_reader

  let ev = function
    | Broadcast m -> B (msg_info m)
    | Return { value; rounds } -> R (value, rounds)
end

module Safe_drive = Drive (New_safe) (Old_safe)

let safe_trial st tr =
  let cfg = Quorum.Config.make_exn ~s:tr.s ~t:tr.t ~b:tr.b in
  let round1 (o : Ref_safe_reader.t) =
    match o.phase with Ref_safe_reader.Round1 _ -> true | _ -> false
  in
  let ts_fr (o : Ref_safe_reader.t) =
    match o.phase with
    | Ref_safe_reader.Round1 d | Round2 d -> d.ts_fr
    | Idle -> o.tsr'
  in
  let reply a ts_fr =
    let pw, w = pair tr a in
    if a.round = 1 then Messages.Read1_ack { tsr = ts_fr + a.shift; pw; w }
    else Messages.Read2_ack { tsr = ts_fr + 1 + a.shift; pw; w }
  in
  let { Safe_reader.conflict_detection; elimination; vouchers } = tr.knobs in
  Safe_drive.run ~q:(Quorum.Config.quorum cfg) ~round1 ~ts_fr ~reply
    ~extra:(fun _ _ _ _ -> ())
    ~reconnect:(fun r o -> (r, o))
    st tr
    (Safe_reader.init ~knobs:tr.knobs ~cfg ~j:tr.j ())
    (Ref_safe_reader.init
       ~knobs:{ Ref_safe_reader.conflict_detection; elimination; vouchers }
       ~cfg ~j:tr.j ())

(* ----- tests ------------------------------------------------------------- *)

(* [QCHECK_LONG=1] multiplies the trial count by 25, to 50,000 per
   reader. *)
let oracle name trial =
  QCheck.Test.make ~name ~count:2000 ~long_factor:25 arb_trial
    (trial (stats ()))

(* The oracle tests prove nothing if the generator never reaches the
   paths that differ: a fixed-seed sample must decide in one and in two
   rounds, and hold some round-1 quorum open on conflicts. *)
let coverage trial () =
  let st = stats () in
  let rand = Random.State.make [| 20 |] in
  for _ = 1 to 2000 do
    ignore (trial st (gen_trial rand))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "one-round decisions (%d)" (st.decisions - st.two_round))
    true
    (st.decisions - st.two_round > 500);
  Alcotest.(check bool)
    (Printf.sprintf "two-round decisions (%d)" st.two_round)
    true (st.two_round > 100);
  Alcotest.(check bool)
    (Printf.sprintf "round-1 quorums held open by conflicts (%d)"
       st.conflict_held)
    true (st.conflict_held > 30)

let suite =
  ( "reader-oracle",
    [
      QCheck_alcotest.to_alcotest
        (oracle "regular reader decides as the reference" regular_trial);
      QCheck_alcotest.to_alcotest
        (oracle "safe reader decides as the reference" safe_trial);
      Alcotest.test_case "regular generator reaches both rounds and conflicts"
        `Quick (coverage regular_trial);
      Alcotest.test_case "safe generator reaches both rounds and conflicts"
        `Quick (coverage safe_trial);
    ] )
