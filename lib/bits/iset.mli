(** Sets of disjoint half-open integer intervals.

    Used as the occupancy map of the trampoline address-space allocator:
    intervals mark *occupied* bytes, and allocation queries search for free
    gaps inside a constrained window (the punned-jump target interval).

    Internally an augmented balanced tree (start-keyed AVL carrying the
    max free gap per subtree), so the one placement query {!find_free}
    descends only into branches that can hold a wide-enough gap:
    O(log n) per query instead of a linear blocker walk. *)

type t

(** [create ()] is an empty set. *)
val create : unit -> t

(** [add t ~lo ~hi] marks [lo, hi) occupied. Overlapping or adjacent
    intervals are merged. No-op when [hi <= lo]. The set only grows:
    the allocator queries before it claims, so it never hands a range
    back. *)
val add : t -> lo:int -> hi:int -> unit

(** [mem t x] is true when byte [x] is occupied. *)
val mem : t -> int -> bool

(** [is_free t ~lo ~hi] is true when no byte of [lo, hi) is occupied. *)
val is_free : t -> lo:int -> hi:int -> bool

(** [find_free t ~size ~lo ~hi ~stride] is the lowest start [s] with
    [lo <= s <= hi], [s ≡ lo (mod stride)] and [s, s+size) entirely
    free, if any. [~stride:1] is plain first fit. Requires
    [stride >= 1]. The walk carries the blocking context forward between
    gaps and prunes undersized subtrees, so it costs O(log n) per free
    gap wide enough for [size] but misaligned for [stride] — it never
    iterates stride positions or occupied intervals one by one. *)
val find_free : t -> size:int -> lo:int -> hi:int -> stride:int -> int option

(** [occupied t] is the total number of occupied bytes. *)
val occupied : t -> int

(** [count t] is the number of disjoint occupied intervals — a direct
    fragmentation gauge (bytes per interval falls as fragmentation
    rises). *)
val count : t -> int

(** [intervals t] lists the occupied intervals in increasing order. *)
val intervals : t -> (int * int) list
