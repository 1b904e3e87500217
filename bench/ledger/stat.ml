(* Order statistics shared by the measuring loop and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the spread this file reports is the one a reader gets by
   pasting the same values into Python. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  match len with
  | 0 -> invalid_arg "Stat.quartiles: no values"
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
      let m = len + 1 in
      let q i =
        let j = max 1 (min (len - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no values"
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stat.geomean: no values"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))
