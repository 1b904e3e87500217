(** Deterministic pseudo-random numbers (splitmix64).

    Every randomized component in this project — the synthetic binary
    generator, property tests, workload profiles — draws from this generator
    so that whole-pipeline runs are reproducible from a single seed. *)

type t

(** [create seed] is a fresh generator. Equal seeds give equal streams. *)
val create : int64 -> t

(** [split t] derives an independent generator (for sub-components). *)
val split : t -> t

(** [next t] is the next raw 64-bit value. *)
val next : t -> int64

(** [int t n] is uniform in [0, n). Requires [n > 0]. *)
val int : t -> int -> int

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
val range : t -> int -> int -> int

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [chance t p] is true with probability [p] (clamped to [0,1]). *)
val chance : t -> float -> bool

(** [pick t arr] is a uniformly chosen element. Requires a nonempty array. *)
val pick : t -> 'a array -> 'a

(** [weighted t choices] picks according to nonnegative weights; at least one
    weight must be positive. *)
val weighted : t -> (float * 'a) list -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
