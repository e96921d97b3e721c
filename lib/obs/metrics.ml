module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing inclusive upper bounds *)
    counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
    mutable total : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create ~bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Histogram.create: no bounds";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Histogram.create: bounds not strictly increasing"
    done;
    {
      bounds = Array.copy bounds;
      counts = Array.make (n + 1) 0;
      total = 0;
      sum = 0.0;
      minv = infinity;
      maxv = neg_infinity;
    }

  let bounds t = Array.copy t.bounds

  (* First bucket whose upper bound is >= x; the extra slot is the
     overflow bucket (x above every bound). *)
  let bucket_index t x =
    let n = Array.length t.bounds in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x <= t.bounds.(mid) then search lo mid else search (mid + 1) hi
    in
    search 0 n

  let observe t x =
    let i = bucket_index t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. x;
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x

  let observe_int t x = observe t (float_of_int x)

  let count t = t.total

  let sum t = t.sum

  let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

  let min_exn t =
    if t.total = 0 then invalid_arg "Histogram.min_exn: empty";
    t.minv

  let max_exn t =
    if t.total = 0 then invalid_arg "Histogram.max_exn: empty";
    t.maxv

  let counts t = Array.copy t.counts

  let buckets t =
    let n = Array.length t.bounds in
    List.init (n + 1) (fun i ->
        let lo = if i = 0 then neg_infinity else t.bounds.(i - 1) in
        let hi = if i = n then infinity else t.bounds.(i) in
        (lo, hi, t.counts.(i)))

  let compatible a b =
    Array.length a.bounds = Array.length b.bounds
    && Array.for_all2 (fun x y -> Float.equal x y) a.bounds b.bounds

  let merge a b =
    if not (compatible a b) then invalid_arg "Histogram.merge: bounds differ";
    let t = create ~bounds:a.bounds in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.total <- a.total + b.total;
    t.sum <- a.sum +. b.sum;
    t.minv <- Float.min a.minv b.minv;
    t.maxv <- Float.max a.maxv b.maxv;
    t

  let equal a b =
    compatible a b
    && a.total = b.total
    && Array.for_all2 Int.equal a.counts b.counts

  (* Rebuild a histogram from exported state (the JSONL round-trip for
     cross-process merging).  The total is recomputed from the bucket
     counts, so a tampered count/total mismatch cannot arise. *)
  let restore ~bounds ~counts ~sum ~minv ~maxv =
    let t = create ~bounds in
    if Array.length counts <> Array.length t.counts then
      invalid_arg "Histogram.restore: counts length mismatch";
    let total = ref 0 in
    Array.iteri
      (fun i c ->
        if c < 0 then invalid_arg "Histogram.restore: negative count";
        t.counts.(i) <- c;
        total := !total + c)
      counts;
    t.total <- !total;
    if !total > 0 then begin
      t.sum <- sum;
      t.minv <- minv;
      t.maxv <- maxv
    end;
    t

  (* Nearest-rank quantile at bucket resolution: the upper bound of the
     bucket holding the rank-th smallest observation (the observed max
     for the overflow bucket, whose upper bound is infinite). *)
  let quantile t p =
    if t.total = 0 then invalid_arg "Histogram.quantile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Histogram.quantile: p not in [0,100]";
    let rank =
      Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.total)))
    in
    let n = Array.length t.bounds in
    let rec walk i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank || i = n then if i = n then t.maxv else t.bounds.(i)
      else walk (i + 1) cum
    in
    walk 0 0

  let pp ppf t =
    if t.total = 0 then Format.fprintf ppf "n=0"
    else begin
      let biggest = Array.fold_left Stdlib.max 1 t.counts in
      List.iter
        (fun (lo, hi, c) ->
          if c > 0 || (Float.is_finite lo && Float.is_finite hi) then
            Format.fprintf ppf "(%8.1f, %8.1f] %6d %s@." lo hi c
              (String.make (c * 40 / biggest) '#'))
        (buckets t)
    end
end

(* Canonical bucket layouts, shared so that histograms recorded by
   independent runs (campaign cells, engine instances) stay mergeable. *)
let round_bounds = [| 1.0; 2.0; 3.0; 4.0; 5.0; 8.0 |]

let depth_bounds =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 1024.0; 4096.0 |]

let count_bounds =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 512.0; 2048.0 |]

let latency_bounds =
  [| 5.0; 10.0; 20.0; 40.0; 80.0; 160.0; 320.0; 640.0; 1280.0; 5120.0 |]

let wallclock_bounds =
  [| 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1_000.0; 10_000.0; 100_000.0 |]

let batch_bounds = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]

let bytes_bounds =
  [| 8.0; 16.0; 24.0; 32.0; 48.0; 64.0; 96.0; 128.0; 256.0; 1024.0; 4096.0; 65536.0 |]

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let add t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

let incr t name = add t name 1

(* Interned counter handles: hot paths resolve the name once and then
   bump the shared ref directly, skipping the per-event hash lookup and
   any name construction. *)
type counter = int ref

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let counter_incr (r : counter) = Stdlib.incr r


let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let histogram t name ~bounds =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create ~bounds in
      Hashtbl.replace t.histograms name h;
      h

let observe t name ~bounds x = Histogram.observe (histogram t name ~bounds) x

let observe_int t name ~bounds x = observe t name ~bounds (float_of_int x)

let find_histogram t name = Hashtbl.find_opt t.histograms name

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters ( ! )

let histograms t = sorted_bindings t.histograms Fun.id

let add_histogram t name h =
  match Hashtbl.find_opt t.histograms name with
  | None ->
      (* fresh copy so the source stays independent *)
      Hashtbl.replace t.histograms name
        (Histogram.merge h (Histogram.create ~bounds:h.Histogram.bounds))
  | Some existing ->
      Hashtbl.replace t.histograms name (Histogram.merge existing h)

let merge_into ~dst src =
  List.iter (fun (name, v) -> add dst name v) (counters src);
  List.iter (fun (name, h) -> add_histogram dst name h) (histograms src)

let table t =
  let tbl =
    Stats.Table.create
      ~headers:[ "metric"; "kind"; "count"; "value"; "mean"; "p50"; "p99"; "max" ]
  in
  List.iter
    (fun (name, v) ->
      Stats.Table.add_row tbl
        [ name; "counter"; ""; string_of_int v; ""; ""; ""; "" ])
    (counters t);
  List.iter
    (fun (name, h) ->
      let f fmt x = Printf.sprintf fmt x in
      if Histogram.count h = 0 then
        Stats.Table.add_row tbl [ name; "histogram"; "0"; ""; ""; ""; ""; "" ]
      else
        Stats.Table.add_row tbl
          [
            name; "histogram";
            string_of_int (Histogram.count h);
            f "%g" (Histogram.sum h);
            f "%.2f" (Histogram.mean h);
            f "%g" (Histogram.quantile h 50.0);
            f "%g" (Histogram.quantile h 99.0);
            f "%g" (Histogram.max_exn h);
          ])
    (histograms t);
  tbl
