(** Patching statistics in the shape of the paper's Table 1. *)

type tactic = B0 | B1 | B2 | T1 | T2 | T3

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

(** Throughput of the evaluation harness itself: how fast the bench
    pipeline rewrote and emulated, not a property of the rewritten
    binaries. Fed by the bench driver, persisted to BENCH_throughput.json
    so successive PRs have a perf trajectory to regress against. *)
type throughput = {
  wall_s : float;  (** whole bench run, wall clock *)
  emu_insns : int;  (** guest instructions emulated, all runs *)
  emu_wall_s : float;  (** wall clock spent inside [Cpu.run] *)
  block_hits : int;  (** superblock-cache hits, all runs *)
  block_misses : int;
  block_invalidations : int;  (** generation-mismatch cache flushes *)
  domains : int;  (** domains the bench pipeline fanned out across *)
}

(** [insns_per_sec t] is emulated guest instructions per emulation
    wall-clock second (0 when nothing ran). *)
val insns_per_sec : throughput -> float

(** [block_hit_rate t] is hits / (hits + misses), in [0, 1]. *)
val block_hit_rate : throughput -> float

val pp_throughput : Format.formatter -> throughput -> unit
