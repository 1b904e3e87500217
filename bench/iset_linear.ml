(* The linear-scan interval set that [E9_bits.Iset] replaced, kept as
   the baseline for the [iset] micro-benchmark: the same [add] and
   [find_free] contract, with the query walking the interval sequence
   linearly (O(intervals) per query) where the tree answers from an
   augmented balanced tree in O(log n). Bench-only — nothing outside
   bench/ may depend on it. *)

module M = Map.Make (Int)

(* Invariant: values of [map] are disjoint, non-adjacent intervals keyed by
   their start; [map.(lo) = hi] encodes occupied [lo, hi). *)
type t = { mutable map : int M.t }

let create () = { map = M.empty }

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

let find_free t ~size ~lo ~hi ~stride =
  if stride < 1 then invalid_arg "Iset.find_free";
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
