(** The fault-injection campaign (DESIGN.md §11).

    Crosses random rewrite cases ({!Fuzz.gen_case}) with random fault
    schedules over the {!E9_fault.Fault} sites and checks the hardening
    contract: every injected fault lands in exactly one of three
    permitted outcomes —

    + {e degraded-but-verified}: the tactic search fell through (to B0
      when [b0_fallback] is on), the output passes {!Static.verify};
    + {e accounted}: sites failed, counted in [Stats.failed], output
      still verified;
    + {e typed}: [Rewriter.Error] / [Frontend.Error] raised, no partial
      output file.

    Anything else — an uncaught exception, a verifier rejection, a
    half-written file — is a contract violation and fails the case.
    Each case additionally checks total-allocator-exhaustion degradation
    to 100% B0, and short-write containment for ELF serialization and
    trace sinks. *)

type fcase = { case : Fuzz.case; schedule : E9_fault.Fault.rule list }

val fcase_to_string : fcase -> string
val gen_schedule : E9_fault.Fault.rule list QCheck2.Gen.t
val gen_fcase : fcase QCheck2.Gen.t

type outcome =
  | Full  (** rewrite + static verification OK, no site failed *)
  | Degraded  (** verified, but sites failed or fell back to B0 *)
  | Typed of string  (** typed refusal, nothing half-written *)

(** [run_leg f] rewrites [f.case] under [f.schedule] and
    classifies. [Error] = contract violation. The rewrite result is
    returned when one was produced. *)
val run_leg : fcase -> (outcome * E9_core.Rewriter.result option, string) result

(** [run_b0_exhaustion_leg case] starves every jump-tactic allocation
    ([alloc@0+]) with [b0_fallback] forced on and requires 100% of sites
    to land on B0 with a verified output; returns the B0 site count. *)
val run_b0_exhaustion_leg : Fuzz.case -> (int, string) result

(** [run_fcase f] runs all legs for one case. [Ok None] = the profile
    could not be generated (skip-and-report); [Ok (Some (outcome,
    b0_sites, write_faults, trace_faults))] = contract held. *)
val run_fcase :
  fcase -> ((outcome * int * int * int) option, string) result

type summary = {
  cases : int;
  full : int;
  degraded : int;
  typed : int;
  skipped : int;  (** profiles that failed to generate (Codegen.Error) *)
  b0_sites : int;  (** sites degraded to B0 in the exhaustion legs *)
  write_faults : int;
  trace_faults : int;
  failures : (string * string) list;  (** case, contract violation *)
}

val pp_summary : Format.formatter -> summary -> unit

(** JSON rollup for BENCH_throughput.json's [faults] object. *)
val summary_json : summary -> E9_obs.Json.t

(** [campaign ?progress ~n ~seed ()] runs [n] random fault cases from a
    fixed seed; deterministic given [(n, seed)]. *)
val campaign : ?progress:(int -> unit) -> n:int -> seed:int -> unit -> summary

(** The QCheck property (shrinking enabled), for the test suite. *)
val property : ?count:int -> ?name:string -> unit -> QCheck2.Test.t
