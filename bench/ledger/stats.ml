(* Order statistics, computed exactly as Python's
   [statistics.quantiles(data, n=k)] (default "exclusive" method) does,
   so the spreads this benchmark prints are the spreads anyone
   re-deriving them from the raw rows gets. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

(* The [i]-th of the [k]-quantiles of sorted [a]; needs at least two
   points (a single value is its own quantile). *)
let cut a ~k ~i =
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / k)) in
    let delta = (i * m) - (j * k) in
    ((a.(j - 1) *. float_of_int (k - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int k

let percentile values p = cut (sorted values) ~k:100 ~i:p
let median values = cut (sorted values) ~k:2 ~i:1

let quartiles values =
  let a = sorted values in
  (cut a ~k:4 ~i:1, cut a ~k:4 ~i:3)

(* Quartile distance as a share of the median: the run-to-run spread a
   bound has to exceed for a difference to mean anything. *)
let spread values =
  let q1, q3 = quartiles values in
  (q3 -. q1) /. median values

let sum values = List.fold_left ( +. ) 0.0 values
