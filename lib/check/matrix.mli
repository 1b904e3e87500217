(** The robustness campaign: drive every {!E9_workload.Adversary} family
    through the rewriter and score the outcome against its pinned
    expectations — the corpus' regression wall.

    Each family is interpreted (generate, optionally strip, derive island
    exclusion ranges for the hole-aware sweep, choose selector and
    options), rewritten once, and scored on:

    - patched% against the family's pinned floor;
    - the per-tactic mix and the typed reject histogram (via an
      {!E9_obs.Obs} aggregator);
    - the {!Static} verifier's verdict;
    - the {!Trace} differential-execution verdict;
    - family-specific ground truth: endbr64 anchor counts, island byte
      preservation, expected tactic-ladder pressure (nonzero T3/B0).

    Everything is deterministic (fixed profile seeds, one serial
    rewrite), so the machine-readable matrix is reproducible
    byte-for-byte. *)

type score = {
  family : E9_workload.Adversary.family;
  sites : int;  (** patch sites attempted (selected) *)
  patched : int;  (** sites served by any tactic *)
  patched_pct : float;
  stats : E9_core.Stats.t;  (** per-tactic mix *)
  agg : E9_obs.Obs.Agg.agg;  (** typed reject histogram et al. *)
  static_err : string option;  (** [None] = verifier passed *)
  trace_err : string option;  (** [None] = trace oracle passed *)
  anchors_ok : bool;  (** endbr64 anchor ground truth ([true] if n/a) *)
  islands_kept : bool;  (** island bytes untouched ([true] if n/a) *)
  wall_s : float;
}

(** [score_family f] interprets, rewrites and scores one family. *)
val score_family : E9_workload.Adversary.family -> score

(** [verdict s] is the family's pass/fail against every pinned
    expectation, with a one-line reason naming the regressed property. *)
val verdict : score -> (unit, string) result

val passed : score -> bool

(** [run ()] scores the whole corpus in canonical order. [progress] is
    called with the 1-based family count after each score. *)
val run : ?progress:(int -> unit) -> unit -> score list

(** [to_json scores] is the machine-readable pass-rate matrix (schema
    [e9repro-robustness/1]). *)
val to_json : score list -> E9_obs.Json.t

val pp_score : Format.formatter -> score -> unit
val pp : Format.formatter -> score list -> unit
