(* Keyspace tests (ISSUE 9): the shard placement function, the zipfian
   workload generator, and the keyed client/server path live against a
   real cluster.

   Placement is a pure function both sides recompute independently, so
   its algebra (member/rank inverse, balanced rotation) is exactly what
   keeps clients and server domains agreeing without a placement
   service — worth property-testing hard. *)

let cfg3 = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0

(* ----- Shard.Map properties --------------------------------------------- *)

let gen_map_params =
  QCheck.Gen.(
    map2
      (fun keys extra -> (keys, cfg3.Quorum.Config.s + extra))
      (1 -- 200) (0 -- 5))

let arb_map_params =
  QCheck.make
    ~print:(fun (keys, fleet) -> Printf.sprintf "keys=%d fleet=%d" keys fleet)
    gen_map_params

let map_placement_well_formed =
  QCheck.Test.make ~name:"every key lands on a shard of s distinct slots"
    ~count:300 arb_map_params (fun (keys, fleet) ->
      let m = Shard.Map.make_exn ~keys ~fleet ~cfg:cfg3 () in
      let s = cfg3.Quorum.Config.s in
      let ok = ref true in
      for key = 0 to keys - 1 do
        let sh = Shard.Map.shard_of_key m key in
        if sh < 0 || sh >= Shard.Map.shards m then ok := false;
        let mem = Shard.Map.members m ~shard:sh in
        if Array.length mem <> s then ok := false;
        Array.iter (fun slot -> if slot < 0 || slot >= fleet then ok := false) mem;
        (* distinct members: a quorum of s replies must mean s distinct
           base objects, never one server counted twice *)
        let sorted = Array.copy mem in
        Array.sort compare sorted;
        for i = 1 to s - 1 do
          if sorted.(i) = sorted.(i - 1) then ok := false
        done
      done;
      !ok)

let map_member_rank_inverse =
  QCheck.Test.make
    ~name:"rank_of_slot inverts member; non-members are None" ~count:300
    arb_map_params (fun (keys, fleet) ->
      let m = Shard.Map.make_exn ~keys ~fleet ~cfg:cfg3 () in
      let s = cfg3.Quorum.Config.s in
      let ok = ref true in
      for sh = 0 to Shard.Map.shards m - 1 do
        let mem = Shard.Map.members m ~shard:sh in
        for rank = 0 to s - 1 do
          if Shard.Map.member m ~shard:sh ~rank <> mem.(rank) then ok := false;
          match Shard.Map.rank_of_slot m ~shard:sh ~slot:mem.(rank) with
          | Some r when r = rank -> ()
          | _ -> ok := false
        done;
        for slot = 0 to fleet - 1 do
          if not (Array.exists (( = ) slot) mem) then
            match Shard.Map.rank_of_slot m ~shard:sh ~slot with
            | None -> ()
            | Some _ -> ok := false
        done
      done;
      !ok)

let map_rotation_is_balanced =
  QCheck.Test.make
    ~name:"default sharding loads every fleet slot with s memberships"
    ~count:200 arb_map_params (fun (keys, fleet) ->
      (* shards defaults to fleet: one rotation per starting slot, so
         each slot serves exactly s shards *)
      let m = Shard.Map.make_exn ~keys ~fleet ~cfg:cfg3 () in
      let load = Array.make fleet 0 in
      for sh = 0 to Shard.Map.shards m - 1 do
        Array.iter
          (fun slot -> load.(slot) <- load.(slot) + 1)
          (Shard.Map.members m ~shard:sh)
      done;
      Array.for_all (( = ) cfg3.Quorum.Config.s) load)

let map_rejects_bad_params () =
  (match Shard.Map.make ~keys:0 ~fleet:3 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "keys=0 accepted");
  (match Shard.Map.make ~keys:4 ~fleet:2 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fleet < s accepted");
  match Shard.Map.make ~keys:4 ~fleet:3 ~shards:0 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shards=0 accepted"

let mix_is_nonnegative =
  QCheck.Test.make ~name:"Shard.Map.mix is nonnegative on all ints" ~count:500
    QCheck.int (fun k -> Shard.Map.mix k >= 0)

(* ----- Workload.Keyspace ------------------------------------------------- *)

let gen_keyspace_params =
  QCheck.Gen.(
    map3
      (fun keys skew (wr, seed) -> (keys, skew, wr, seed))
      (1 -- 500)
      (* both draw paths: YCSB closed form (< 1) and exact CDF (>= 1) *)
      (oneofl [ 0.0; 0.5; 0.9; 0.99; 1.0; 1.2; 2.0 ])
      (pair (oneofl [ 0.0; 0.05; 0.3; 1.0 ]) (0 -- 1000)))

let arb_keyspace_params =
  QCheck.make
    ~print:(fun (keys, skew, wr, seed) ->
      Printf.sprintf "keys=%d skew=%.2f wr=%.2f seed=%d" keys skew wr seed)
    gen_keyspace_params

let keyspace_is_deterministic =
  QCheck.Test.make ~name:"same (keys, skew, ratio, seed) => same op stream"
    ~count:200 arb_keyspace_params (fun (keys, skew, wr, seed) ->
      let mk () =
        Workload.Keyspace.make_exn ~skew ~write_ratio:wr ~keys ~seed ()
      in
      Workload.Keyspace.ops (mk ()) 200 = Workload.Keyspace.ops (mk ()) 200)

let keyspace_keys_in_range =
  QCheck.Test.make ~name:"every drawn key is inside [0, keys)" ~count:200
    arb_keyspace_params (fun (keys, skew, wr, seed) ->
      let t = Workload.Keyspace.make_exn ~skew ~write_ratio:wr ~keys ~seed () in
      Array.for_all
        (fun op ->
          let k = Workload.Keyspace.op_key op in
          k >= 0 && k < keys)
        (Workload.Keyspace.ops t 500))

let keyspace_write_values_distinct =
  QCheck.Test.make
    ~name:"write values are distinct and name their key" ~count:100
    arb_keyspace_params (fun (keys, skew, _, seed) ->
      let t =
        Workload.Keyspace.make_exn ~skew ~write_ratio:0.5 ~keys ~seed ()
      in
      let seen = Hashtbl.create 64 in
      Array.for_all
        (fun op ->
          match op with
          | Workload.Keyspace.Read _ -> true
          | Workload.Keyspace.Write { key; value } ->
              let v = Core.Value.to_string value in
              let fresh = not (Hashtbl.mem seen v) in
              Hashtbl.replace seen v ();
              let prefix = Printf.sprintf "k%d." key in
              fresh
              && String.length v > String.length prefix
              && String.sub v 0 (String.length prefix) = prefix)
        (Workload.Keyspace.ops t 300))

let keyspace_write_filter_respected =
  QCheck.Test.make
    ~name:"write_filter converts non-owned write draws into reads"
    ~count:100 arb_keyspace_params (fun (keys, skew, _, seed) ->
      let owns k = Shard.Map.mix k mod 2 = 0 in
      let t =
        Workload.Keyspace.make_exn ~skew ~write_ratio:1.0 ~write_filter:owns
          ~keys ~seed ()
      in
      Array.for_all
        (fun op ->
          match op with
          | Workload.Keyspace.Write { key; _ } -> owns key
          | Workload.Keyspace.Read { key } -> not (owns key))
        (Workload.Keyspace.ops t 300))

let keyspace_ratio_extremes () =
  let all_reads =
    Workload.Keyspace.ops
      (Workload.Keyspace.make_exn ~write_ratio:0.0 ~keys:16 ~seed:1 ())
      200
  in
  Alcotest.(check bool)
    "write_ratio 0 draws no writes" false
    (Array.exists Workload.Keyspace.op_is_write all_reads);
  let all_writes =
    Workload.Keyspace.ops
      (Workload.Keyspace.make_exn ~write_ratio:1.0 ~keys:16 ~seed:1 ())
      200
  in
  Alcotest.(check bool)
    "write_ratio 1 draws only writes" true
    (Array.for_all Workload.Keyspace.op_is_write all_writes)

let keyspace_zipf_skews_toward_low_keys () =
  (* skew 0.99 over 100 keys: rank 0 carries ~19% of the mass, the last
     rank ~0.2% — with a fixed seed the gap is decisive, not noisy *)
  let t =
    Workload.Keyspace.make_exn ~skew:0.99 ~write_ratio:0.0 ~keys:100 ~seed:42
      ()
  in
  let counts = Array.make 100 0 in
  Array.iter
    (fun op ->
      let k = Workload.Keyspace.op_key op in
      counts.(k) <- counts.(k) + 1)
    (Workload.Keyspace.ops t 4000);
  Alcotest.(check bool)
    (Printf.sprintf "key 0 (%d draws) dominates key 99 (%d draws)" counts.(0)
       counts.(99))
    true
    (counts.(0) > 10 * (counts.(99) + 1))

let keyspace_rejects_bad_params () =
  (match Workload.Keyspace.make ~keys:0 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "keys=0 accepted");
  (match Workload.Keyspace.make ~skew:(-0.1) ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "skew<0 accepted");
  (match Workload.Keyspace.make ~skew:Float.infinity ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "skew=inf accepted");
  (* skew >= 1 is the proper-Zipf CDF path: valid, and even hotter *)
  (match Workload.Keyspace.make ~skew:1.2 ~keys:4 ~seed:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "skew=1.2 rejected: %s" e);
  match Workload.Keyspace.make ~write_ratio:1.5 ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write_ratio>1 accepted"

(* ----- live keyed cluster ------------------------------------------------ *)

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* The shape of [robustread cluster --clients 3 --keys 32]: three
   engines of two lanes on one keyspace cluster, each on a domain of its
   own through the lib runner, write ownership split by
   [Shard.Map.mix key mod 3], and object 2 crashed by whichever client
   sees the run's halfway response.  Every op completes and is recorded,
   the engines' reader ids never overlap, and every key is safe. *)
let keyed_clients_through_runner () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  let clients = 3 and per_client = 150 and keys = 32 in
  let map = Shard.Map.make_exn ~keys ~fleet:4 ~cfg () in
  let c =
    Net.Cluster.start ~domains:2 ~map ~protocol:Net.Protocols.safe ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let engines =
        Array.init clients (fun _ -> Net.Cluster.engine ~lanes:2 c)
      in
      let ops =
        Array.init clients (fun k ->
            let gen =
              Workload.Keyspace.make_exn ~skew:0.99 ~write_ratio:0.1
                ~write_filter:(fun key -> Shard.Map.mix key mod clients = k)
                ~keys ~seed:(5 + k) ()
            in
            Array.map
              (function
                | Workload.Keyspace.Read { key } ->
                    Net.Client.Keyed.Read { key }
                | Workload.Keyspace.Write { key; value } ->
                    Net.Client.Keyed.Write { key; value })
              (Workload.Keyspace.ops gen per_client))
      in
      let half = clients * per_client / 2 in
      let responses = Atomic.make 0 and crashes = Atomic.make 0 in
      (* each engine's lanes, seen from its own domain only *)
      let lanes = Array.make clients [] in
      let on_event k = function
        | Net.Client.Keyed.Invoke { reader; _ } ->
            if reader > 0 && not (List.mem reader lanes.(k)) then
              lanes.(k) <- reader :: lanes.(k)
        | Net.Client.Keyed.Respond _ ->
            if 1 + Atomic.fetch_and_add responses 1 = half then begin
              Atomic.incr crashes;
              Net.Cluster.crash c 2
            end
      in
      let passes =
        Exec.Pool.timed clients (fun k () ->
            Net.Cluster.run ~on_event:(on_event k) engines.(k) ops.(k))
      in
      Net.Cluster.restart_exn c 2;
      Alcotest.(check int) "object 2 crashed once" 1 (Atomic.get crashes);
      let completed = ref 0 in
      Array.iteri
        (fun k (_, results) ->
          Array.iteri
            (fun i r ->
              ignore (ok_exn (Printf.sprintf "client %d op %d" k i) r);
              incr completed)
            results)
        passes;
      Array.iteri
        (fun a la ->
          Alcotest.(check bool)
            (Printf.sprintf "engine %d read through its lanes" a)
            true (la <> []);
          Array.iteri
            (fun b lb ->
              if a < b then
                Alcotest.(check bool)
                  (Printf.sprintf "engines %d and %d share no reader id" a b)
                  true
                  (List.for_all (fun r -> not (List.mem r lb)) la))
            lanes)
        lanes;
      let v =
        Fault.Campaign.judge Safe ~quiescent:true ~completed:!completed
          ~total:!completed (Net.Cluster.keyed_histories c)
      in
      Alcotest.(check int) "the histories hold every completed op" !completed
        v.checked;
      Alcotest.(check int) "every key passes the safe claim, in 2 rounds" 0
        (Fault.Campaign.breaches v);
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c))

(* A keyed mix over a real loopback cluster: every op completes, every
   sampled key's history passes the single-register checkers, and no
   base object is ever stepped outside its owning domain. *)
let keyed_cluster_histories_check () =
  let map = Shard.Map.make_exn ~keys:8 ~fleet:3 ~cfg:cfg3 () in
  let c =
    Net.Cluster.start ~map ~protocol:Net.Protocols.safe
      ~cfg:cfg3 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let gen =
        Workload.Keyspace.make_exn ~skew:0.5 ~write_ratio:0.3 ~keys:8 ~seed:11
          ()
      in
      let kops =
        Array.map
          (fun op ->
            match op with
            | Workload.Keyspace.Read { key } -> Net.Client.Keyed.Read { key }
            | Workload.Keyspace.Write { key; value } ->
                Net.Client.Keyed.Write { key; value })
          (Workload.Keyspace.ops gen 120)
      in
      let results =
        Net.Cluster.run (Net.Cluster.engine ~inflight:16 c) kops
      in
      Array.iteri
        (fun i r -> ignore (ok_exn (Printf.sprintf "keyed op %d" i) r))
        results;
      let histories = Net.Cluster.keyed_histories c in
      Alcotest.(check bool) "touched several keys, one history each" true
        (List.length histories > 1);
      List.iter
        (fun (key, h) ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is safe" key)
            true
            (Histories.Checks.is_safe ~equal:String.equal h);
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is regular" key)
            true
            (Histories.Checks.is_regular ~equal:String.equal h))
        histories;
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c);
      (* at S = 3 = 2t+2b+1 the fast path is admissible on every shard
         that served a read *)
      let m = Net.Cluster.metrics c in
      for sh = 0 to Shard.Map.shards map - 1 do
        let reads =
          Obs.Metrics.counter_value m (Printf.sprintf "shard.%d.reads" sh)
        in
        let fast =
          Obs.Metrics.counter_value m
            (Printf.sprintf "shard.%d.fast_reads" sh)
        in
        if reads > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "shard %d fast reads engaged" sh)
            true (fast > 0)
      done)

(* The single register is key 0: key 0 of a keyspace over the single
   register's fleet lands on the single register's slots, rank for
   rank, so the same base objects answer it at the same object
   indices. *)
let key_zero_is_the_legacy_register () =
  let single = Shard.Map.single cfg3 in
  List.iter
    (fun keys ->
      let m = Shard.Map.make_exn ~keys ~fleet:3 ~cfg:cfg3 () in
      Alcotest.(check (array int))
        (Printf.sprintf "key 0 of %d keys" keys)
        (Shard.Map.slots_of_key single 0)
        (Shard.Map.slots_of_key m 0))
    [ 1; 4; 1000 ]

(* ----- quorum-sized rounds: who gets a fresh round ----------------------- *)

(* (members, connected-by-slot, unanswered-by-slot, q) over a small fleet;
   unanswered counts are drawn from a narrow range so ties are common. *)
let gen_pick =
  QCheck.Gen.(
    int_range 1 7 >>= fun n ->
    int_range 0 3 >>= fun extra ->
    let fleet = n + extra in
    shuffle_l (List.init fleet Fun.id) >>= fun slots ->
    array_repeat fleet bool >>= fun connected ->
    array_repeat fleet (int_range 0 3) >>= fun unanswered ->
    int_range 1 n >>= fun q ->
    let members = Array.of_list (List.filteri (fun i _ -> i < n) slots) in
    return (members, connected, unanswered, q))

let arb_pick =
  QCheck.make
    ~print:(fun (m, c, u, q) ->
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf "members=[%s] connected=[%s] unanswered=[%s] q=%d" (ints m)
        (String.concat ","
           (Array.to_list (Array.map (fun b -> if b then "1" else "0") c)))
        (ints u) q)
    gen_pick

let pick_of (members, connected, unanswered, q) =
  Net.Client.Keyed.pick ~members ~connected:(Array.get connected)
    ~unanswered:(Array.get unanswered) ~q

let pick_within_connected =
  QCheck.Test.make ~name:"pick: chosen members are connected" ~count:500
    arb_pick (fun ((members, connected, _, _) as p) ->
      let chosen = pick_of p in
      Array.for_all2 (fun slot ch -> (not ch) || connected.(slot)) members chosen)

let pick_size =
  QCheck.Test.make ~name:"pick: exactly min(q, connected) members" ~count:500
    arb_pick (fun ((members, connected, _, q) as p) ->
      let chosen = pick_of p in
      let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a in
      count Fun.id chosen = min q (count (Array.get connected) members))

let pick_least_unanswered =
  QCheck.Test.make
    ~name:"pick: no skipped connected member is less backlogged (ties: lower slot)"
    ~count:500 arb_pick (fun ((members, connected, unanswered, _) as p) ->
      let chosen = pick_of p in
      let key slot = (unanswered.(slot), slot) in
      let ok = ref true in
      Array.iteri
        (fun i si ->
          Array.iteri
            (fun k sk ->
              if chosen.(i) && (not chosen.(k)) && connected.(sk)
                 && compare (key sk) (key si) < 0
              then ok := false)
            members)
        members;
      !ok)

let pick_t0_is_everyone =
  QCheck.Test.make ~name:"pick: q = S (t = 0) picks every connected member"
    ~count:300 arb_pick (fun (members, connected, unanswered, _) ->
      let chosen =
        pick_of (members, connected, unanswered, Array.length members)
      in
      Array.for_all2 (fun slot ch -> ch = connected.(slot)) members chosen)

(* ----- quorum-sized rounds, live ------------------------------------------ *)

let counter m name = Obs.Metrics.counter_value m name

let metrics_exn c =
  Net.Cluster.metrics c

let keyed_ops ?(keys = 16) ?(write_ratio = 0.0) ~seed n =
  Array.map
    (function
      | Workload.Keyspace.Read { key } -> Net.Client.Keyed.Read { key }
      | Workload.Keyspace.Write { key; value } ->
          Net.Client.Keyed.Write { key; value })
    (Workload.Keyspace.ops
       (Workload.Keyspace.make_exn ~write_ratio ~keys ~seed ())
       n)

let writes_to_every_key keys =
  Array.init keys (fun key ->
      Net.Client.Keyed.Write
        { key; value = Core.Value.v (Printf.sprintf "k%d.init" key) })

let all_ok what results =
  Array.iteri
    (fun i r -> ignore (ok_exn (Printf.sprintf "%s op %d" what i) r))
    results

let histories_regular histories =
  Alcotest.(check bool) "recorded per-key histories" true (histories <> []);
  List.iter
    (fun (key, h) ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d history is regular" key)
        true
        (Histories.Checks.is_regular ~equal:String.equal h))
    histories

(* A cluster carries its keyspace: S = 3 over a fleet of 4 hosts all
   four servers, each of them serves some key's shard, and a map over
   another configuration is refused. *)
let cluster_hosts_its_maps_fleet () =
  let keys = 16 in
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let c =
    Net.Cluster.start
      ~map:(Shard.Map.make_exn ~keys ~fleet:4 ~cfg:cfg3 ())
      ~protocol ~cfg:cfg3 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      Alcotest.(check (list int)) "objects 1-4 are up" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      let e = Net.Cluster.engine ~inflight:16 c in
      all_ok "write" (Net.Cluster.run e (writes_to_every_key keys));
      all_ok "read"
        (Net.Cluster.run e
           (Array.init keys (fun key -> Net.Client.Keyed.Read { key })));
      for i = 1 to 4 do
        let n = (Net.Cluster.stats c i).Net.Server.messages in
        Alcotest.(check bool)
          (Printf.sprintf "object %d handled messages (%d)" i n)
          true (n > 0)
      done;
      histories_regular (Net.Cluster.keyed_histories c);
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c));
  let other = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  match
    Net.Cluster.start ~map:(Shard.Map.single other) ~protocol ~cfg:cfg3 ()
  with
  | exception Invalid_argument _ -> ()
  | c ->
      Net.Cluster.stop c;
      Alcotest.fail "a map over another configuration was accepted"

(* Fault-free: every round goes to exactly S−t members.  A hedge (the
   last contacted member answering slowly on a loaded host) adds one
   frame to the one skipped member at S−t = S−1, so the identity holds
   with hedges counted in. *)
let fault_free_counts ~s ~reads_per_read () =
  let cfg = Quorum.Config.make_exn ~s ~t:1 ~b:1 in
  let keys = 16 in
  let c =
    Net.Cluster.start
      ~map:(Shard.Map.make_exn ~keys ~fleet:s ~cfg ())
      ~protocol:(Net.Protocols.regular_gc ~readers:2)
      ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let sum m names = List.fold_left (fun n k -> n + counter m k) 0 names in
      let writes = writes_to_every_key keys in
      let e = Net.Cluster.engine ~inflight:16 c in
      all_ok "write" (Net.Cluster.run e writes);
      let m = metrics_exn c in
      let hedge_w = counter m "op.expand.hedge" in
      Alcotest.(check int)
        (Printf.sprintf "S=%d: each write sends 2 x %d requests" s (s - 1))
        ((2 * (s - 1) * keys) + hedge_w)
        (sum m [ "wire.write.r1.req.sent"; "wire.write.r2.req.sent" ]);
      let reads = keyed_ops ~keys ~seed:3 200 in
      all_ok "read" (Net.Cluster.run e reads);
      let m = metrics_exn c in
      let hedge_r = counter m "op.expand.hedge" - hedge_w in
      Alcotest.(check int)
        (Printf.sprintf "S=%d: each read sends %d requests" s reads_per_read)
        ((reads_per_read * Array.length reads) + hedge_r)
        (sum m [ "wire.read.r1.req.sent"; "wire.read.r2.req.sent" ]);
      Alcotest.(check int) "no lost widenings" 0 (counter m "op.expand.lost");
      Alcotest.(check int) "no undecided widenings" 0
        (counter m "op.expand.undecided");
      Alcotest.(check int) "no retransmits" 0
        (counter m "net.client.retransmits");
      histories_regular (Net.Cluster.keyed_histories c))

let fault_free_counts_s5 () =
  (* S = 2t+2b+1: one round, 4 Read1 per read *)
  fault_free_counts ~s:5 ~reads_per_read:4 ()

let fault_free_counts_s4 () =
  (* S = 2t+b+1: with no lie and no overlapping write, one round of 3 *)
  fault_free_counts ~s:4 ~reads_per_read:3 ()

(* An object crashes while 16 ops are in flight: rounds that had
   contacted it widen at once instead of waiting out the deadline. *)
let crash_widens_lost_rounds () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let keys = 32 in
  let c =
    Net.Cluster.start
      ~map:(Shard.Map.make_exn ~keys ~fleet:4 ~cfg ())
      ~protocol:(Net.Protocols.regular_gc ~readers:2)
      ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let responses = ref 0 in
      let on_event = function
        | Net.Client.Keyed.Respond _ ->
            incr responses;
            if !responses = 60 then Net.Cluster.crash c 4
        | Net.Client.Keyed.Invoke _ -> ()
      in
      let ops = keyed_ops ~keys ~write_ratio:0.2 ~seed:5 400 in
      all_ok "keyed"
        (Net.Cluster.run ~on_event (Net.Cluster.engine ~inflight:16 c) ops);
      Alcotest.(check (list int)) "object 4 is down" [ 1; 2; 3 ]
        (Net.Cluster.alive c);
      let m = metrics_exn c in
      Alcotest.(check bool)
        (Printf.sprintf "lost widenings (%d) > 0" (counter m "op.expand.lost"))
        true
        (counter m "op.expand.lost" > 0);
      histories_regular (Net.Cluster.keyed_histories c))

(* A member that accepts connections and never answers: once its first
   frames go unanswered, fresh rounds steer away from it, and rounds
   that did contact it are hedged — no deadline retransmits pile up. *)
let silent_member_is_avoided () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let servers =
    List.init 3 (fun i ->
        Net.Server.start ~protocol ~cfg ~index:(i + 1)
          (Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 }))
  in
  let silent_ep, silent_cleanup = Suite_net.silent_listener () in
  Fun.protect
    ~finally:(fun () ->
      silent_cleanup ();
      List.iter Net.Server.stop servers)
    (fun () ->
      let endpoints =
        Array.of_list (List.map Net.Server.endpoint servers @ [ silent_ep ])
      in
      let keys = 16 and window = 16 in
      let map = Shard.Map.make_exn ~keys ~fleet:4 ~cfg () in
      let metrics = Obs.Metrics.create () in
      (* One client, so one log: the client's own clock stamps it. *)
      let record = Core.Record.create () in
      let k =
        Net.Client.Keyed.connect ~metrics ~max_inflight:window ~protocol ~map
          endpoints
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close k)
        (fun () ->
          let ops =
            Array.append (writes_to_every_key keys)
              (keyed_ops ~keys ~write_ratio:0.2 ~seed:7 300)
          in
          let on_event =
            Core.Record.event (Core.Record.log record) (Array.get ops)
          in
          all_ok "keyed" (Net.Client.Keyed.run_ops ~on_event k ops);
          let retr = counter metrics "net.client.retransmits" in
          Alcotest.(check bool)
            (Printf.sprintf "retransmits (%d) <= window (%d)" retr window)
            true (retr <= window);
          histories_regular (Core.Record.histories record)))

(* One member answers 50 ms late: the hedge sends the round to the
   member it skipped, so the median read never waits for the slow one. *)
let slow_member_is_hedged () =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 in
  let keys = 16 in
  let c =
    Net.Cluster.start
      ~map:(Shard.Map.make_exn ~keys ~fleet:5 ~cfg ())
      ~protocol:(Net.Protocols.regular_gc ~readers:2)
      ~cfg ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      Net.Cluster.set_rules c 3
        [
          {
            Net.Chaos.dir = Net.Chaos.To_client;
            sender = None;
            from_us = 0;
            until_us = max_int;
            act = Net.Chaos.Delay 50_000;
          };
        ];
      let e = Net.Cluster.engine ~inflight:16 c in
      all_ok "write" (Net.Cluster.run e (writes_to_every_key keys));
      let reads = Net.Cluster.run e (keyed_ops ~keys ~seed:9 200) in
      let lat =
        Array.map (fun r -> (ok_exn "read" r).Net.Client.latency_us) reads
      in
      Array.sort compare lat;
      let p50 = lat.(Array.length lat / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "read p50 %d us well under the 50 ms delay" p50)
        true (p50 < 20_000);
      let m = metrics_exn c in
      Alcotest.(check bool) "hedges fired" true (counter m "op.expand.hedge" > 0);
      histories_regular (Net.Cluster.keyed_histories c))

(* Object [index], served by hand: it answers every request at once,
   except that to each later READ1 of a reader on a key it sends a copy
   of its reply to the first one instead — a late reply of an earlier
   read, as a network that duplicates and delays can deliver — and its
   answer to the current read is lost. *)
let replaying_object ~protocol ~cfg ~index =
  let (Net.Protocols.Packed { proto = (module P); codec }) = protocol in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let obj = ref (P.obj_init ~cfg ~index) in
  let first_reads = Hashtbl.create 8 in
  let send fd f =
    try Net.Codec.send fd (Net.Codec.encode_frame codec f)
    with Unix.Unix_error _ -> ()
  in
  let on_frame fd = function
    | Net.Codec.Hello _ ->
        send fd (Net.Codec.Hello_ack { proto = P.name; obj = index })
    | Net.Codec.Msg_key { key; sender; msg } -> (
        let src = Option.get (Sim.Proc_id.of_string sender) in
        let o, reply = P.obj_handle !obj ~src msg in
        obj := o;
        let cls = P.msg_class msg in
        match reply with
        | None -> ()
        | Some r when cls.Obs.Wire.op = Obs.Wire.Read && cls.round = 1 -> (
            match Hashtbl.find_opt first_reads (key, sender) with
            | Some late -> send fd late
            | None ->
                let f = Net.Codec.Msg_key { key; sender; msg = r } in
                Hashtbl.replace first_reads (key, sender) f;
                send fd f)
        | Some r -> send fd (Net.Codec.Msg_key { key; sender; msg = r }))
    | Net.Codec.Hello_ack _ | Net.Codec.Err _ -> ()
  in
  let stop = Atomic.make false in
  let conns = ref [] in
  let serve fd =
    let rd = List.assq fd !conns in
    let close () =
      conns := List.filter (fun (c, _) -> c != fd) !conns;
      try Unix.close fd with Unix.Unix_error _ -> ()
    in
    match Net.Codec.recv_into fd rd with
    | 0 | (exception Unix.Unix_error _) -> close ()
    | _ ->
        let rec drain () =
          match Net.Codec.Reader.next codec rd with
          | Ok (`Frame f) ->
              on_frame fd f;
              drain ()
          | Ok `Awaiting -> ()
          | Error _ -> close ()
        in
        drain ()
  in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let ready, _, _ =
            Unix.select (lfd :: List.map fst !conns) [] [] 0.05
          in
          List.iter
            (fun fd ->
              if fd == lfd then
                match Unix.accept lfd with
                | c, _ -> conns := (c, Net.Codec.Reader.create ()) :: !conns
                | exception Unix.Unix_error _ -> ()
              else serve fd)
            ready
        done)
      ()
  in
  let cleanup () =
    Atomic.set stop true;
    Thread.join t;
    List.iter
      (fun (c, _) -> try Unix.close c with Unix.Unix_error _ -> ())
      !conns;
    try Unix.close lfd with Unix.Unix_error _ -> ()
  in
  (Net.Endpoint.Tcp { host = "127.0.0.1"; port }, cleanup)

(* A reply counts toward a round only if it answers the round's
   current request.  Object 1 answers the second read with its late
   reply to the first; objects 2-5 answer 10 ms late, so the round's
   hedge is armed long after that late reply arrives.  Counting it
   would make the three real answers look like all four the round
   contacted, and the round would widen as undecided one answer early;
   not counting it leaves the fourth to the hedge. *)
let late_reply_of_previous_op_is_no_answer () =
  let cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1 in
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let c = Net.Cluster.start ~protocol ~cfg () in
  let x_ep, x_cleanup = replaying_object ~protocol ~cfg ~index:1 in
  Fun.protect
    ~finally:(fun () ->
      x_cleanup ();
      Net.Cluster.stop c)
    (fun () ->
      for i = 2 to 5 do
        Net.Cluster.set_rules c i
          [
            {
              Net.Chaos.dir = Net.Chaos.To_client;
              sender = None;
              from_us = 0;
              until_us = max_int;
              act = Net.Chaos.Delay 10_000;
            };
          ]
      done;
      let endpoints =
        Array.mapi
          (fun i ep -> if i = 0 then x_ep else ep)
          (Net.Cluster.endpoints c)
      in
      let metrics = Obs.Metrics.create () in
      let writer = Live_ops.single ~session:"w" ~protocol ~cfg endpoints in
      let reader = Live_ops.single ~metrics ~protocol ~cfg endpoints in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.Keyed.close writer;
          Net.Client.Keyed.close reader)
        (fun () ->
          ignore
            (ok_exn "write" (Live_ops.run_one writer (Live_ops.write0 "x")));
          List.iter
            (fun what ->
              let o = ok_exn what (Live_ops.run_one reader Live_ops.read0) in
              Alcotest.(check (option string))
                (what ^ " returns the write") (Some "x")
                (Option.map Core.Value.to_string o.Net.Client.value))
            [ "first read"; "second read" ];
          Alcotest.(check int) "no undecided widening" 0
            (counter metrics "op.expand.undecided")))

let suite =
  ( "keyspace",
    [
      QCheck_alcotest.to_alcotest map_placement_well_formed;
      QCheck_alcotest.to_alcotest map_member_rank_inverse;
      QCheck_alcotest.to_alcotest map_rotation_is_balanced;
      Alcotest.test_case "a cluster hosts its map's whole fleet" `Quick
        cluster_hosts_its_maps_fleet;
      Alcotest.test_case "Shard.Map rejects bad params" `Quick
        map_rejects_bad_params;
      QCheck_alcotest.to_alcotest mix_is_nonnegative;
      QCheck_alcotest.to_alcotest keyspace_is_deterministic;
      QCheck_alcotest.to_alcotest keyspace_keys_in_range;
      QCheck_alcotest.to_alcotest keyspace_write_values_distinct;
      QCheck_alcotest.to_alcotest keyspace_write_filter_respected;
      Alcotest.test_case "write_ratio extremes" `Quick keyspace_ratio_extremes;
      Alcotest.test_case "zipf skews toward low keys" `Quick
        keyspace_zipf_skews_toward_low_keys;
      Alcotest.test_case "Keyspace rejects bad params" `Quick
        keyspace_rejects_bad_params;
      Alcotest.test_case "keyed cluster: per-key histories check" `Quick
        keyed_cluster_histories_check;
      Alcotest.test_case "key 0 is the legacy register" `Quick
        key_zero_is_the_legacy_register;
      QCheck_alcotest.to_alcotest pick_within_connected;
      QCheck_alcotest.to_alcotest pick_size;
      QCheck_alcotest.to_alcotest pick_least_unanswered;
      QCheck_alcotest.to_alcotest pick_t0_is_everyone;
      Alcotest.test_case "quorum-sized rounds: fault-free counts at S=5"
        `Quick fault_free_counts_s5;
      Alcotest.test_case "quorum-sized rounds: fault-free counts at S=4"
        `Quick fault_free_counts_s4;
      Alcotest.test_case "quorum-sized rounds: a crash widens lost rounds"
        `Quick crash_widens_lost_rounds;
      Alcotest.test_case "quorum-sized rounds: a silent member is avoided"
        `Quick silent_member_is_avoided;
      Alcotest.test_case "quorum-sized rounds: a slow member is hedged"
        `Quick slow_member_is_hedged;
      Alcotest.test_case "quorum-sized rounds: a late reply of the previous op"
        `Quick late_reply_of_previous_op_is_no_answer;
      Alcotest.test_case "keyed cluster: three clients through the runner"
        `Quick keyed_clients_through_runner;
    ] )
