(* The pre-PR linear-scan interval set, preserved verbatim as the
   baseline for the [iset] micro-benchmark: same contract as
   [E9_bits.Iset], with [find_free]/[find_free_strided]
   walking the interval sequence linearly (O(intervals) per query) where
   the replacement answers from an augmented balanced tree in O(log n).
   Bench-only — nothing outside bench/ may depend on it. *)

module M = Map.Make (Int)

(* Invariant: values of [map] are disjoint, non-adjacent intervals keyed by
   their start; [map.(lo) = hi] encodes occupied [lo, hi). *)
type t = { mutable map : int M.t }

let create () = { map = M.empty }
let copy t = { map = t.map }

(* The interval (if any) that starts at or before [x]. *)
let floor t x = M.find_last_opt (fun k -> k <= x) t.map

let add t ~lo ~hi =
  if hi > lo then begin
    (* Extend [lo, hi) to swallow any interval it touches, consuming only
       the intervals actually in range (adds must stay near O(log n)). *)
    let lo, hi =
      match floor t lo with
      | Some (l, h) when h >= lo ->
          t.map <- M.remove l t.map;
          (min lo l, max hi h)
      | _ -> (lo, hi)
    in
    let hi = ref (max hi lo) in
    let continue = ref true in
    while !continue do
      match M.find_first_opt (fun k -> k >= lo) t.map with
      | Some (l, h) when l <= !hi ->
          t.map <- M.remove l t.map;
          hi := max !hi h
      | Some _ | None -> continue := false
    done;
    t.map <- M.add lo !hi t.map
  end

let remove t ~lo ~hi =
  if hi > lo then begin
    (* Split any interval straddling [lo]. *)
    (match floor t lo with
    | Some (l, h) when l < lo && h > lo ->
        t.map <- M.add l lo t.map;
        t.map <- M.add lo h t.map
    | _ -> ());
    let continue = ref true in
    while !continue do
      match M.find_first_opt (fun k -> k >= lo) t.map with
      | Some (l, h) when l < hi ->
          t.map <- M.remove l t.map;
          if h > hi then t.map <- M.add hi h t.map
      | Some _ | None -> continue := false
    done
  end

let mem t x =
  match floor t x with Some (_, h) -> h > x | None -> false

let is_free t ~lo ~hi =
  if hi <= lo then true
  else
    match floor t (hi - 1) with
    | Some (_, h) when h > lo -> false
    | _ -> true

let find_free t ~size ~lo ~hi =
  if size <= 0 || hi < lo then None
  else begin
    (* Candidate starts: [lo] itself, then the end of each occupied interval
       that begins before the window is exhausted. *)
    let result = ref None in
    let cand = ref lo in
    (match floor t lo with
    | Some (_, h) when h > lo -> cand := h
    | _ -> ());
    let rec try_from s =
      if s > hi then ()
      else
        match M.find_first_opt (fun k -> k >= s) t.map with
        | Some (l, h) when l < s + size ->
            (* Occupied interval blocks [s, s+size); jump past it. *)
            try_from (max h s)
        | _ -> result := Some s
    in
    try_from !cand;
    !result
  end

let find_free_strided t ~size ~lo ~hi ~stride =
  if stride < 1 then invalid_arg "Iset.find_free_strided";
  if size <= 0 || hi < lo then None
  else begin
    (* Round [x] up to the next candidate position (≡ lo mod stride). *)
    let round_up x =
      let d = x - lo in
      lo + ((d + stride - 1) / stride * stride)
    in
    (* Walk candidates and occupied intervals in lockstep. [next] caches
       the lowest interval whose end exceeds the previous candidate, so
       each advancement costs one successor lookup instead of a [floor]
       plus a [find_first_opt] per probe. A candidate [s] is blocked iff
       the lowest interval with [h > s] starts below [s + size]. *)
    let result = ref None in
    let rec try_from s next =
      if s > hi then ()
      else
        match next with
        | Some (l, h) when h <= s ->
            (* The cache fell behind [s]; advance it one interval. *)
            try_from s (M.find_first_opt (fun k -> k > l) t.map)
        | Some (l, h) when l < s + size ->
            try_from (round_up (max h (s + 1))) (Some (l, h))
        | Some _ | None -> result := Some s
    in
    let s0 = round_up lo in
    let first =
      match floor t s0 with
      | Some (l, h) when h > s0 -> Some (l, h)
      | _ -> M.find_first_opt (fun k -> k >= s0) t.map
    in
    try_from s0 first;
    !result
  end

let iter t f = M.iter (fun lo hi -> f ~lo ~hi) t.map
let fold t init f = M.fold (fun lo hi acc -> f acc ~lo ~hi) t.map init
let occupied t = fold t 0 (fun acc ~lo ~hi -> acc + (hi - lo))
let count t = M.cardinal t.map
let intervals t = List.rev (fold t [] (fun acc ~lo ~hi -> (lo, hi) :: acc))
