(** Patching statistics in the shape of the paper's Table 1. *)

(** The tactic enum is the observability layer's, re-exported so
    [Stats.B1] and [Obs.B1] are one constructor. *)
type tactic = E9_obs.Obs.tactic = B0 | B1 | B2 | T1 | T2 | T3

type t = {
  mutable b0 : int;
  mutable b1 : int;
  mutable b2 : int;
  mutable t1 : int;
  mutable t2 : int;
  mutable t3 : int;
  mutable failed : int;
}

val create : unit -> t
val record : t -> tactic -> unit
val record_failure : t -> unit

(** [total t] is the number of patch locations attempted. *)
val total : t -> int

(** [succeeded t] is the number patched by any tactic. *)
val succeeded : t -> int

(** Table 1 columns, as percentages of [total]. [base_pct] is B1+B2
    (the paper's Base%); [succ_pct] is the paper's Succ%. *)
val base_pct : t -> float

val t1_pct : t -> float
val t2_pct : t -> float
val t3_pct : t -> float
val succ_pct : t -> float

val tactic_name : tactic -> string
val pp : Format.formatter -> t -> unit
