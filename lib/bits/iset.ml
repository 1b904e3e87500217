(* Augmented AVL tree of disjoint, non-adjacent intervals keyed by start:
   a node [{lo; hi; _}] encodes occupied [lo, hi).  Beyond the AVL height
   each node carries three subtree aggregates:

     - [min_lo] / [max_hi]: the address span covered by the subtree, and
     - [max_gap]: the widest free gap lying strictly *between* two
       consecutive intervals of the subtree (0 when the subtree holds
       fewer than two intervals).

   The free-gap query [find_free] walks the gap sequence in address
   order but prunes every branch whose aggregates show it cannot contain
   an answer — a subtree is entered only when its widest gap (including
   the gap to its in-order predecessor/successor, which the walk threads
   through the recursion) is at least [size] and its span reaches the
   query window.
   The first gap that qualifies terminates the walk, so a query costs
   O(log n) descent plus O(log n) per oversized-but-unusable gap it must
   step over (misaligned gaps at a stride above 1, the single gap
   containing the window edge otherwise). *)

type tree =
  | E
  | N of {
      l : tree;
      lo : int;
      hi : int;
      r : tree;
      h : int;  (* AVL height *)
      n : int;  (* interval count *)
      min_lo : int;
      max_hi : int;
      max_gap : int;
    }

type t = { mutable root : tree }

let create () = { root = E }
let height = function E -> 0 | N nd -> nd.h
let count_tree = function E -> 0 | N nd -> nd.n

(* Smart constructor: recomputes aggregates from the children. The gap
   between a child's nearest interval and [lo, hi) itself is part of this
   subtree, so it feeds [max_gap] here. *)
let mk l lo hi r =
  let gl, minl = match l with E -> (0, lo) | N nd -> (max nd.max_gap (lo - nd.max_hi), nd.min_lo)
  and gr, maxh = match r with E -> (0, hi) | N nd -> (max nd.max_gap (nd.min_lo - hi), nd.max_hi) in
  N
    {
      l;
      lo;
      hi;
      r;
      h = 1 + max (height l) (height r);
      n = 1 + count_tree l + count_tree r;
      min_lo = minl;
      max_hi = maxh;
      max_gap = max gl gr;
    }

(* [mk] with a single AVL rebalancing step (|height l - height r| <= 2). *)
let bal l lo hi r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | N { l = ll; lo = llo; hi = lhi; r = lr; _ } when height ll >= height lr ->
        mk ll llo lhi (mk lr lo hi r)
    | N { l = ll; lo = llo; hi = lhi; r = N { l = lrl; lo = lrlo; hi = lrhi; r = lrr; _ }; _ } ->
        mk (mk ll llo lhi lrl) lrlo lrhi (mk lrr lo hi r)
    | _ -> assert false
  else if hr > hl + 1 then
    match r with
    | N { l = rl; lo = rlo; hi = rhi; r = rr; _ } when height rr >= height rl ->
        mk (mk l lo hi rl) rlo rhi rr
    | N { l = N { l = rll; lo = rllo; hi = rlhi; r = rlr; _ }; lo = rlo; hi = rhi; r = rr; _ } ->
        mk (mk l lo hi rll) rllo rlhi (mk rlr rlo rhi rr)
    | _ -> assert false
  else mk l lo hi r

(* The interval (if any) that starts at or before [x]. *)
let floor t x =
  let rec go tree best =
    match tree with
    | E -> best
    | N { l; lo; hi; r; _ } -> if lo <= x then go r (Some (lo, hi)) else go l best
  in
  go t.root None

(* The interval (if any) with the lowest start >= [x]. *)
let first_geq t x =
  let rec go tree best =
    match tree with
    | E -> best
    | N { l; lo; hi; r; _ } -> if lo >= x then go l (Some (lo, hi)) else go r best
  in
  go t.root None

(* [insert]/[delete] assume the caller ([add]) already cleared any
   interval that would collide with the key. *)
let rec insert tree lo hi =
  match tree with
  | E -> mk E lo hi E
  | N nd ->
      if lo < nd.lo then bal (insert nd.l lo hi) nd.lo nd.hi nd.r
      else bal nd.l nd.lo nd.hi (insert nd.r lo hi)

let rec take_min tree =
  match tree with
  | E -> invalid_arg "Iset.take_min"
  | N { l = E; lo; hi; r; _ } -> (lo, hi, r)
  | N { l; lo; hi; r; _ } ->
      let mlo, mhi, l' = take_min l in
      (mlo, mhi, bal l' lo hi r)

let rec delete tree k =
  match tree with
  | E -> E
  | N { l; lo; hi; r; _ } ->
      if k < lo then bal (delete l k) lo hi r
      else if k > lo then bal l lo hi (delete r k)
      else (
        match (l, r) with
        | E, _ -> r
        | _, E -> l
        | _, N _ ->
            let mlo, mhi, r' = take_min r in
            bal l mlo mhi r')

let add t ~lo ~hi =
  if hi > lo then begin
    (* Extend [lo, hi) to swallow any interval it touches, consuming only
       the intervals actually in range (adds must stay near O(log n)). *)
    let lo, hi =
      match floor t lo with
      | Some (l, h) when h >= lo ->
          t.root <- delete t.root l;
          (min lo l, max hi h)
      | _ -> (lo, hi)
    in
    let hi = ref (max hi lo) in
    let continue = ref true in
    while !continue do
      match first_geq t lo with
      | Some (l, h) when l <= !hi ->
          t.root <- delete t.root l;
          hi := max !hi h
      | Some _ | None -> continue := false
    done;
    t.root <- insert t.root lo !hi
  end

let mem t x = match floor t x with Some (_, h) -> h > x | None -> false

let is_free t ~lo ~hi =
  if hi <= lo then true
  else match floor t (hi - 1) with Some (_, h) when h > lo -> false | _ -> true

exception Found of int

(* [min_int]/[max_int] stand in for "no predecessor"/"no successor";
   gap widths against them are clamped to avoid wraparound. *)
let gap_after pred_hi next_lo =
  if pred_hi = min_int || next_lo = max_int then max_int else next_lo - pred_hi

(* The query walks gaps [g, next_lo) left to right, testing each for
   the first usable start; the walk raises [Found] on a hit and [Exit]
   once every later gap is past the window, and prunes a branch when its
   widest gap (threading the in-order predecessor through [pred_hi]) is
   under [size] or its span ends below the window. The walker is
   deliberately a first-order direct recursion — explicit arguments
   instead of a higher-order skeleton — because it runs millions of
   times per rewrite and per-call closure construction and indirect
   calls are measurable there. *)

(* [gap g next_lo]: lowest start in [g, next_lo) that is >= lo and
   ≡ lo (mod stride). Stride 1 takes the mask path, where the rounding
   is the identity. *)
let gap g next_lo ~size ~lo ~hi ~stride =
  let s0 = if g > lo then g else lo in
  (* Joint-pun strides are powers of two; round by mask there, the
     integer division costs more than the rest of the gap test. *)
  let s =
    if stride land (stride - 1) = 0 then
      lo + ((s0 - lo + stride - 1) land lnot (stride - 1))
    else lo + ((s0 - lo + stride - 1) / stride * stride)
  in
  if s > hi then raise Exit;
  if (next_lo = max_int || next_lo - size >= s) && gap_after g next_lo >= size
  then raise (Found s)

let rec walk tree pred_hi ~size ~lo ~hi ~stride =
  match tree with
  | E -> ()
  | N { l; lo = ilo; hi = ihi; r; _ } ->
      (match l with
      | E -> gap pred_hi ilo ~size ~lo ~hi ~stride
      | N nl ->
          if
            nl.max_hi >= lo
            && (nl.max_gap >= size || gap_after pred_hi nl.min_lo >= size)
          then walk l pred_hi ~size ~lo ~hi ~stride;
          gap nl.max_hi ilo ~size ~lo ~hi ~stride);
      (match r with
      | E -> ()
      | N nr ->
          if
            nr.max_hi >= lo
            && (nr.max_gap >= size || gap_after ihi nr.min_lo >= size)
          then walk r ihi ~size ~lo ~hi ~stride)

let find_free t ~size ~lo ~hi ~stride =
  if stride < 1 then invalid_arg "Iset.find_free";
  if size <= 0 || hi < lo then None
  else
    try
      (match t.root with
      | E -> gap min_int max_int ~size ~lo ~hi ~stride
      | N nd ->
          walk t.root min_int ~size ~lo ~hi ~stride;
          gap nd.max_hi max_int ~size ~lo ~hi ~stride);
      None
    with
    | Found s -> Some s
    | Exit -> None

let fold t init f =
  let rec go tree acc =
    match tree with E -> acc | N { l; lo; hi; r; _ } -> go r (f (go l acc) ~lo ~hi)
  in
  go t.root init

let occupied t = fold t 0 (fun acc ~lo ~hi -> acc + (hi - lo))
let count t = count_tree t.root
let intervals t = List.rev (fold t [] (fun acc ~lo ~hi -> (lo, hi) :: acc))
