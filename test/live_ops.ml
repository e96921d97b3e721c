(* The single register's operations for the live suites: key 0 of
   [Shard.Map.single], one op per call through [Net.Cluster.run] (so it
   is recorded), or on a bare engine outside any cluster. *)

let read0 = Net.Client.Keyed.Read { key = 0 }

let write0 v = Net.Client.Keyed.Write { key = 0; value = Core.Value.v v }

let write e v = (Net.Cluster.run e [| write0 v |]).(0)

let read e = (Net.Cluster.run e [| read0 |]).(0)

(* [n] key-0 reads in one call, pipelined across the engine's lanes. *)
let reads e n = Net.Cluster.run e (Array.make n read0)

(* An engine on the single register served at [endpoints]. *)
let single ?session ?metrics ?readers ?max_inflight ~protocol ~cfg endpoints =
  Net.Client.Keyed.connect ?session ?metrics ?readers ?max_inflight ~protocol
    ~map:(Shard.Map.single cfg) endpoints

let run_one k op = (Net.Client.Keyed.run_ops k [| op |]).(0)
