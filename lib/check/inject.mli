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

(** [campaign ?progress ~n ~seed ()] runs [n] random fault cases from a
    fixed seed; deterministic given [(n, seed)]. *)
val campaign : ?progress:(int -> unit) -> n:int -> seed:int -> unit -> summary

(** The QCheck property (shrinking enabled), for the test suite. *)
val property : ?count:int -> ?name:string -> unit -> QCheck2.Test.t
