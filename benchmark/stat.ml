(* Order statistics, computed the way Python's [statistics.quantiles]
   does with its default "exclusive" method, so the spreads this
   benchmark prints are the ones a Python reader of its JSON output
   would compute. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* The [i]-th of the [n]-quantile cut points of already-sorted data.
   Needs at least two points; one point is its own every quantile. *)
let cut sorted ~i ~n =
  let ld = Array.length sorted in
  if ld = 0 then invalid_arg "Stat.cut: no data"
  else if ld = 1 then sorted.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((sorted.(j - 1) *. float_of_int (n - delta))
    +. (sorted.(j) *. float_of_int delta))
    /. float_of_int n

let percentile xs p = cut (sorted xs) ~i:p ~n:100

let median xs = percentile xs 50

(* Median, first and third quartile, and the interquartile distance as
   a share of the median. *)
let spread xs =
  let s = sorted xs in
  let q1 = cut s ~i:1 ~n:4 and q2 = cut s ~i:2 ~n:4 and q3 = cut s ~i:3 ~n:4 in
  (q2, q1, q3, if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2)

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Growable float sample, for latencies collected op by op. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
