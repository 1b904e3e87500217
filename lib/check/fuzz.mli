(** Randomized differential fuzzing of the rewriter.

    Draws random {!E9_workload.Codegen} profiles crossed with random tactic
    configurations (B1/B2, T1, T2, T3, B0 fallback, page
    granularity/grouping, loader mode, jump- vs. heap-write selection),
    rewrites each generated binary with {!E9_core.Trampoline.Empty}
    templates, and requires that

    - the {!Static} verifier accounts for every changed byte, and
    - the {!Trace} oracle observes no architectural divergence.

    Exposed both as a QCheck property (with shrinking to a minimal failing
    case) for [dune runtest], and as a seeded campaign runner for the
    [e9patch_cli fuzz] subcommand. *)

type case = {
  profile : E9_workload.Codegen.profile;
  options : E9_core.Rewriter.options;
  select_writes : bool;
      (** patch heap writes (application A2) instead of jumps (A1) *)
}

val case_to_string : case -> string
val gen_case : case QCheck2.Gen.t

(** [prepare case] generates the case's binary, its data holes
    ({!E9_workload.Codegen.holes}: the leading pool of a
    [data_in_text_kb > 0] profile) and site selector — the common front
    half of {!run_case} and {!rewrite}, exposed for harnesses (e.g.
    {!Inject}) that drive the rewrite themselves. Raises
    {!E9_workload.Codegen.Error} when the profile cannot be generated. *)
val prepare :
  case -> Elf_file.t * (int * int) list * (Frontend.site -> bool)

(** [run_case case] is one generate → rewrite → verify → differential-run
    round trip. *)
val run_case : case -> (Static.report * Trace.stats, string) result

(** [rewrite case] is the generate → rewrite half alone, returning the
    input binary, the holes it used, and the full rewrite result — the
    hook for tests that pin or compare outputs. *)
val rewrite :
  case -> Elf_file.t * (int * int) list * E9_core.Rewriter.result

(** Aggregate numbers from a campaign, for reporting. *)
type summary = {
  cases : int;
  failed : (string * string) list;  (** printed case, failure message *)
  skipped : int;
      (** cases whose profile could not even be generated
          ({!E9_workload.Codegen.Error}) — reported, not failed *)
  changed_bytes : int;
  diversions : int;
  short_jumps : int;
  traps : int;
  trampolines : int;
  boundary_retires : int;
  stores : int;
}

val pp_summary : Format.formatter -> summary -> unit

(** [campaign ?progress ~n ~seed ()] runs [n] random cases from a fixed
    seed; deterministic given [(n, seed)]. *)
val campaign : ?progress:(int -> unit) -> n:int -> seed:int -> unit -> summary

(** The QCheck property (shrinking enabled), for the test suite. *)
val property : ?count:int -> ?name:string -> unit -> QCheck2.Test.t
