type op = Core.Driver_ops.kop =
  | Read of { key : int }
  | Write of { key : int; value : Core.Value.t }

let op_key = Core.Driver_ops.op_key

let op_is_write = Core.Driver_ops.op_is_write

type t = {
  keys : int;
  skew : float;
  write_ratio : float;
  write_filter : int -> bool;
  rng : Sim.Prng.t;
  (* YCSB zipfian constants, all pure functions of (keys, skew) *)
  zetan : float;
  eta : float;
  alpha : float;
  half_pow_theta : float;
  (* skew >= 1: cumulative distribution, one slot per key (the YCSB
     closed form needs alpha = 1/(1-skew), which blows up at 1) *)
  cdf : float array;
  (* per-key write sequence numbers, so every write value is unique *)
  seqs : (int, int) Hashtbl.t;
}

(* zeta(n, theta) = sum_{i=1..n} 1/i^theta *)
let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let make ?(skew = 0.0) ?(write_ratio = 0.05) ?(write_filter = fun _ -> true)
    ~keys ~seed () =
  if keys < 1 then Error (Printf.sprintf "keyspace: keys = %d" keys)
  else if skew < 0.0 || not (Float.is_finite skew) then
    Error (Printf.sprintf "keyspace: skew %g outside [0, inf)" skew)
  else if write_ratio < 0.0 || write_ratio > 1.0 then
    Error (Printf.sprintf "keyspace: write ratio %g outside [0, 1]" write_ratio)
  else begin
    let zetan, eta, alpha, half_pow_theta =
      if skew = 0.0 || skew >= 1.0 then (0.0, 0.0, 0.0, 0.0)
      else begin
        let n = float_of_int keys in
        let zetan = zeta keys skew in
        let zeta2 = zeta 2 skew in
        let eta =
          (1.0 -. Float.pow (2.0 /. n) (1.0 -. skew))
          /. (1.0 -. (zeta2 /. zetan))
        in
        (zetan, eta, 1.0 /. (1.0 -. skew), Float.pow 0.5 skew)
      end
    in
    (* The YCSB closed form inverts the CDF analytically via
       alpha = 1/(1-skew), which has a pole at skew 1.  At or above it
       (proper Zipf territory: the hot key takes a constant fraction of
       ALL traffic regardless of keyspace size) fall back to the exact
       cumulative table + binary search: O(keys) once, O(log keys) per
       draw. *)
    let cdf =
      if skew < 1.0 then [||]
      else begin
        let a = Array.make keys 0.0 in
        let acc = ref 0.0 in
        for i = 0 to keys - 1 do
          acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) skew);
          a.(i) <- !acc
        done;
        let z = !acc in
        Array.map (fun x -> x /. z) a
      end
    in
    Ok
      {
        keys;
        skew;
        write_ratio;
        write_filter;
        rng = Sim.Prng.create ~seed;
        zetan;
        eta;
        alpha;
        half_pow_theta;
        cdf;
        seqs = Hashtbl.create 64;
      }
  end

let make_exn ?skew ?write_ratio ?write_filter ~keys ~seed () =
  match make ?skew ?write_ratio ?write_filter ~keys ~seed () with
  | Ok t -> t
  | Error e -> invalid_arg e

let keys t = t.keys

let skew t = t.skew

let write_ratio t = t.write_ratio

(* One zipfian draw (Gray et al. via YCSB's ZipfianGenerator): key 0 is
   the most popular, popularity of rank r falls off as 1/(r+1)^skew.
   skew >= 1 inverts the exact CDF instead (see [make]): find the first
   slot whose cumulative mass covers the uniform draw. *)
let draw_key t =
  if t.skew = 0.0 then Sim.Prng.int t.rng ~bound:t.keys
  else if t.skew >= 1.0 then begin
    let u = Sim.Prng.float t.rng ~bound:1.0 in
    let lo = ref 0 and hi = ref (t.keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  end
  else begin
    let u = Sim.Prng.float t.rng ~bound:1.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. t.half_pow_theta then 1
    else begin
      let n = float_of_int t.keys in
      let k =
        int_of_float (n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
      in
      (* guard the floating-point edge where the power lands on 1.0 *)
      if k >= t.keys then t.keys - 1 else if k < 0 then 0 else k
    end
  end

let value_for t key =
  let n = match Hashtbl.find_opt t.seqs key with Some n -> n | None -> 0 in
  Hashtbl.replace t.seqs key (n + 1);
  Core.Value.v (Printf.sprintf "k%d.%d" key n)

let next t =
  let key = draw_key t in
  let wants_write = Sim.Prng.float t.rng ~bound:1.0 < t.write_ratio in
  if wants_write && t.write_filter key then Write { key; value = value_for t key }
  else Read { key }

let ops t n =
  if n < 0 then invalid_arg "Keyspace.ops: negative count";
  Array.init n (fun _ -> next t)
