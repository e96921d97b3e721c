type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  mutable rev_samples : float list;
  mutable sorted_cache : float array option;
}

let create () =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    minv = infinity;
    maxv = neg_infinity;
    rev_samples = [];
    sorted_cache = None;
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x;
  t.rev_samples <- x :: t.rev_samples;
  t.sorted_cache <- None

let add_int t x = add t (float_of_int x)

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let min t =
  if t.n = 0 then invalid_arg "Summary.min: empty";
  t.minv

let max t =
  if t.n = 0 then invalid_arg "Summary.max: empty";
  t.maxv

let sorted t =
  match t.sorted_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list t.rev_samples in
      Array.sort Float.compare a;
      t.sorted_cache <- Some a;
      a

let percentile t p =
  if t.n = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p not in [0,100]";
  let a = sorted t in
  (* Nearest-rank with ceil, 1-based, per the classic definition. *)
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
  a.(idx)

let median t = percentile t 50.0

let samples t = List.rev t.rev_samples

let merge a b =
  let t = create () in
  List.iter (add t) (samples a);
  List.iter (add t) (samples b);
  t

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f" t.n
      (mean t) (median t) (percentile t 99.0) t.maxv

module Histogram = struct
  type summary = t

  type t = { lo : float; width : float; counts : int array }

  let of_summary (s : summary) ~buckets =
    if s.n = 0 then invalid_arg "Histogram.of_summary: empty summary";
    if buckets <= 0 then invalid_arg "Histogram.of_summary: buckets <= 0";
    let lo = s.minv and hi = s.maxv in
    let span = if hi > lo then hi -. lo else 1.0 in
    let width = span /. float_of_int buckets in
    let counts = Array.make buckets 0 in
    let place x =
      let i = int_of_float ((x -. lo) /. width) in
      let i = Stdlib.max 0 (Stdlib.min (buckets - 1) i) in
      counts.(i) <- counts.(i) + 1
    in
    List.iter place (samples s);
    { lo; width; counts }

  let buckets t =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let lo = t.lo +. (float_of_int i *. t.width) in
           (lo, lo +. t.width, c))
         t.counts)

  let pp ppf t =
    let biggest = Array.fold_left Stdlib.max 1 t.counts in
    List.iter
      (fun (lo, hi, c) ->
        let bar = String.make (c * 40 / biggest) '#' in
        Format.fprintf ppf "[%8.1f, %8.1f) %6d %s@." lo hi c bar)
      (buckets t)
end
