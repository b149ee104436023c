(* Order statistics for the latency metrics. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least 10 samples beyond it:
   the sample with exactly 10 larger ones.  Returns (value, percentile,
   samples beyond).  Below 21 samples that sample lies at or below the
   median; below 11 it does not exist, and the maximum is returned, with
   nothing beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else if n < 11 then (a.(n - 1), 100., 0)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, 10)
