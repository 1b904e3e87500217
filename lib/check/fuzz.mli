(** Randomized differential fuzzing of the rewriter.

    Draws random {!E9_workload.Codegen} profiles crossed with random tactic
    configurations (B1/B2, T1, T2, T3, [t2_joint], B0 fallback, page
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

(** [prepare case] generates the case's binary, disassembly start and
    site selector — the common front half of {!run_case} and
    {!rewrite}, exposed for harnesses (e.g. {!Inject}) that drive the
    rewrite themselves. Raises {!E9_workload.Codegen.Error} when the
    profile cannot be generated. *)
val prepare :
  case -> Elf_file.t * int option * (Frontend.site -> bool)

(** [run_case case] is one generate → rewrite → verify → differential-run
    round trip. *)
val run_case : case -> (Static.report * Trace.stats, string) result

(** [rewrite ?jobs case] is the generate → rewrite half alone,
    returning the input binary, the disassembly start it used, and the
    full rewrite result — the hook for determinism tests that compare
    outputs across [jobs] values. *)
val rewrite :
  ?jobs:int -> case -> Elf_file.t * int option * E9_core.Rewriter.result

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

(** Jobs-determinism property: rewriting with every domain count in
    [jobs] (default [2; 4; 7]) produces output bytes, stats and
    patched-site lists identical to [jobs = 1]. [jobs] drives the
    frontend's parallel linear sweep, run here with chunks small enough
    to put seams inside fuzz-sized texts; a seam must not move a
    site. *)
val jobs_property :
  ?count:int ->
  ?jobs:int list ->
  ?name:string ->
  unit ->
  QCheck2.Test.t
