(* Order statistics for latency samples. *)

(* Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
   the ascending sample. *)
let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: empty sample";
  max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9))))

let percentile sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

(* Samples strictly beyond the percentile's rank. *)
let beyond ~n p = n - rank ~n p

(* A percentile is reported only when at least ten samples lie beyond it
   (so p99 needs 1,000 samples). *)
let supported ~n p = n >= 1 && beyond ~n p >= 10

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* [f] of each consecutive window of at least [size] samples, each
   window sorted first.  Fewer than [2 * size] samples make one window,
   the whole sample. *)
let windows ~size f samples =
  let len = Array.length samples in
  if len = 0 then [||]
  else
    let n = max 1 (len / size) in
    Array.init n (fun w ->
        let lo = w * len / n and hi = (w + 1) * len / n in
        f (sorted_copy (Array.sub samples lo (hi - lo))))
