type placement = Hash | Range

let placement_to_string = function Hash -> "hash" | Range -> "range"

let placement_of_string = function
  | "hash" -> Some Hash
  | "range" -> Some Range
  | _ -> None

type t = {
  keys : int;
  shards : int;
  fleet : int;
  cfg : Quorum.Config.t;
  placement : placement;
}

let keys t = t.keys

let shards t = t.shards

let fleet t = t.fleet

let cfg t = t.cfg

let placement t = t.placement

(* splitmix64's finalizer: a cheap, well-mixed integer permutation.  The
   top bit is masked off so the result is a nonnegative OCaml int; the
   mix must be a pure function of the key alone — every client and every
   server domain recomputes placement independently and they have to
   agree without coordination. *)
let mix k =
  let open Int64 in
  let z = of_int k in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3fffffffffffffffL)

let make ?(placement = Hash) ?shards ~keys ~fleet ~cfg () =
  let s = cfg.Quorum.Config.s in
  let shards = match shards with Some n -> n | None -> fleet in
  if keys < 1 then Error (Printf.sprintf "keys must be >= 1 (got %d)" keys)
  else if shards < 1 then
    Error (Printf.sprintf "shards must be >= 1 (got %d)" shards)
  else if fleet < s then
    Error
      (Printf.sprintf "fleet of %d cannot host S=%d member shards" fleet s)
  else Ok { keys; shards; fleet; cfg; placement }

let make_exn ?placement ?shards ~keys ~fleet ~cfg () =
  match make ?placement ?shards ~keys ~fleet ~cfg () with
  | Ok t -> t
  | Error e -> invalid_arg ("Shard.Map.make: " ^ e)

let single cfg = make_exn ~shards:1 ~keys:1 ~fleet:cfg.Quorum.Config.s ~cfg ()

let shard_of_key t k =
  if k < 0 || k >= t.keys then
    invalid_arg
      (Printf.sprintf "Shard.Map.shard_of_key: key %d outside [0,%d)" k t.keys);
  match t.placement with
  | Hash -> mix k mod t.shards
  | Range ->
      (* contiguous key ranges: shard i serves keys
         [i*keys/shards, (i+1)*keys/shards) *)
      min (t.shards - 1) (k * t.shards / t.keys)

(* Shard [i]'s S members are the fleet slots i, i+1, ... (mod fleet): a
   rotation per shard, so with shards >= fleet every fleet slot carries
   the same number of shard memberships and hot shards do not all pile
   onto slot 0. *)
let member t ~shard ~rank =
  if shard < 0 || shard >= t.shards then
    invalid_arg (Printf.sprintf "Shard.Map.member: shard %d" shard);
  let s = t.cfg.Quorum.Config.s in
  if rank < 0 || rank >= s then
    invalid_arg (Printf.sprintf "Shard.Map.member: rank %d outside [0,%d)" rank s);
  (shard + rank) mod t.fleet

let members t ~shard =
  let s = t.cfg.Quorum.Config.s in
  Array.init s (fun rank -> member t ~shard ~rank)

let rank_of_slot t ~shard ~slot =
  if slot < 0 || slot >= t.fleet then None
  else
    let s = t.cfg.Quorum.Config.s in
    let rank = (slot - shard) mod t.fleet in
    let rank = if rank < 0 then rank + t.fleet else rank in
    if rank < s then Some rank else None

let slots_of_key t k =
  let shard = shard_of_key t k in
  members t ~shard

let pp ppf t =
  Fmt.pf ppf "keyspace(%d keys, %d shards, %s placement, fleet %d, %a)" t.keys
    t.shards
    (placement_to_string t.placement)
    t.fleet Quorum.Config.pp t.cfg

let to_string t = Fmt.str "%a" pp t
