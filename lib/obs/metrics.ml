module Histogram = struct
  (* [stats] holds sum, min and max in a float array, whose elements are
     stored unboxed, so an observation allocates nothing. *)
  type t = {
    bounds : float array;  (* strictly increasing inclusive upper bounds *)
    counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
    mutable total : int;
    stats : float array;  (* [| sum; min; max |] *)
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
      stats = [| 0.0; infinity; neg_infinity |];
    }

  let bounds t = Array.copy t.bounds

  (* Into the first bucket whose upper bound is >= x; the extra slot is
     the overflow bucket (x above every bound). *)
  let[@inline] record t x =
    let b = t.bounds in
    let lo = ref 0 and hi = ref (Array.length b) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if x <= Array.unsafe_get b mid then hi := mid else lo := mid + 1
    done;
    t.counts.(!lo) <- t.counts.(!lo) + 1;
    t.total <- t.total + 1;
    let st = t.stats in
    st.(0) <- st.(0) +. x;
    if x < st.(1) then st.(1) <- x;
    if x > st.(2) then st.(2) <- x

  let observe t x = record t x

  let observe_int t n = record t (float_of_int n)

  let count t = t.total

  let sum t = t.stats.(0)

  let mean t = if t.total = 0 then 0.0 else sum t /. float_of_int t.total

  let min_exn t =
    if t.total = 0 then invalid_arg "Histogram.min_exn: empty";
    t.stats.(1)

  let max_exn t =
    if t.total = 0 then invalid_arg "Histogram.max_exn: empty";
    t.stats.(2)

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

  (* Add [src] into [dst] in place, so a handle on [dst] stays valid. *)
  let merge_in ~dst src =
    if not (compatible dst src) then
      invalid_arg "Histogram.merge: bounds differ";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.total <- dst.total + src.total;
    dst.stats.(0) <- sum dst +. sum src;
    dst.stats.(1) <- Float.min dst.stats.(1) src.stats.(1);
    dst.stats.(2) <- Float.max dst.stats.(2) src.stats.(2)

  let merge a b =
    let t = create ~bounds:a.bounds in
    merge_in ~dst:t a;
    merge_in ~dst:t b;
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
      t.stats.(0) <- sum;
      t.stats.(1) <- minv;
      t.stats.(2) <- maxv
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
      if cum >= rank || i = n then if i = n then t.stats.(2) else t.bounds.(i)
      else walk (i + 1) cum
    in
    walk 0 0
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
  on : bool;  (* [off] records nothing *)
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { on = true; counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let off = { (create ()) with on = false }

let enabled t = t.on

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      v

let add t name n =
  if t.on then
    let r = find_or_add t.counters name (fun () -> ref 0) in
    r := !r + n

let incr t name = add t name 1

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Handles: the name is resolved once, when the handle is made, and the
   metric is registered on first use, so a registry lists only what was
   touched.  On [off] a handle stays unresolved and does nothing. *)
type counter = { creg : t; cname : string; mutable cell : int ref option }

let counter t name = { creg = t; cname = name; cell = None }

let counter_incr c =
  match c.cell with
  | Some r -> Stdlib.incr r
  | None when c.creg.on ->
      let r = find_or_add c.creg.counters c.cname (fun () -> ref 0) in
      c.cell <- Some r;
      Stdlib.incr r
  | None -> ()

type histogram = {
  hreg : t;
  hname : string;
  hbounds : float array;
  mutable hist : Histogram.t option;
}

let histogram t name ~bounds =
  { hreg = t; hname = name; hbounds = bounds; hist = None }

let register h =
  let hist =
    find_or_add h.hreg.histograms h.hname (fun () ->
        Histogram.create ~bounds:h.hbounds)
  in
  h.hist <- Some hist;
  hist

let histogram_observe h x =
  match h.hist with
  | Some hist -> Histogram.record hist x
  | None -> if h.hreg.on then Histogram.record (register h) x

(* Not through [histogram_observe], whose float argument would be boxed. *)
let histogram_observe_int h n =
  match h.hist with
  | Some hist -> Histogram.record hist (float_of_int n)
  | None -> if h.hreg.on then Histogram.record (register h) (float_of_int n)

(* One slot per (op, request, stage), each a by-round array of counter
   handles that grows to the highest round seen. *)
type 'm wire = {
  wreg : t;
  classify : 'm -> Wire.t;
  slots : counter array array;
}

let wire t classify = { wreg = t; classify; slots = Array.make 18 [||] }

let wire_incr w stage m =
  if w.wreg.on then begin
    let c = w.classify m in
    let op = match c.op with Wire.Read -> 0 | Write -> 1 | Other -> 2 in
    let st = match stage with Wire.Sent -> 0 | Delivered -> 1 | Dropped -> 2 in
    let slot = (((op * 2) + Bool.to_int c.request) * 3) + st in
    let have = w.slots.(slot) in
    let n = Array.length have in
    if c.round >= n then
      w.slots.(slot) <-
        Array.append have
          (Array.init (c.round + 1 - n) (fun i ->
               let c = { c with round = n + i } in
               let stage = Wire.stage_to_string stage in
               counter w.wreg ("wire." ^ Wire.to_string c ^ "." ^ stage)));
    counter_incr w.slots.(slot).(c.round)
  end

let requests_sent ?op t =
  let prefix =
    match op with
    | None -> "wire."
    | Some op -> "wire." ^ Wire.op_to_string op ^ "."
  in
  Hashtbl.fold
    (fun name r n ->
      if
        String.starts_with ~prefix name
        && String.ends_with ~suffix:".req.sent" name
      then n + !r
      else n)
    t.counters 0

let find_histogram t name = Hashtbl.find_opt t.histograms name

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters ( ! )

let histograms t = sorted_bindings t.histograms Fun.id

(* In place, so a handle on the existing histogram stays valid; a fresh
   copy when absent, so the source stays independent. *)
let add_histogram t name h =
  if t.on then
    Histogram.merge_in
      ~dst:
        (find_or_add t.histograms name (fun () ->
             Histogram.create ~bounds:h.Histogram.bounds))
      h

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
