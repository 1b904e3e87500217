(** One RPC session: the E9Patch message vocabulary interpreted over the
    rewriter (DESIGN.md §13).

    A session is a small state machine. It starts empty; [binary] loads
    an input (file path or inline hex); [options] / [trampoline] /
    [reserve] / [patch] / [tool] accumulate configuration — [patch] and
    [tool] add rules of the one patch language, [tool] rules flagged for
    the injected runtime; [emit] runs the rewrite (of the input plus the
    runtime, for tool rules) through the shared content-addressed
    caches, verifies the output against the rewrite input with the
    static oracle, optionally writes it atomically, and
    resets the per-binary state so the connection can serve the next
    input. Configuration ([options], named trampolines) survives across
    emits; the binary, patch rules and reservations do not.

    Failure discipline: semantic errors (wrong state, bad params,
    malformed ELF, refused rewrite, failed verification) produce a typed
    error response and the session {e continues}; an injected fault
    ([Rpc_emit]) produces its typed response and {e closes} the session —
    never the daemon, and never with a partial output file. *)

module Json = E9_obs.Json

type decoded = Frontend.text * Frontend.site list

(** A served emit, as cached: the serialized output plus the summary the
    response repeats. A cache hit replays exactly these bytes, so a hit
    is byte-identical to recomputation by construction. *)
type emit_entry = {
  bytes : bytes;
  stats : E9_core.Stats.t;
  size_pct : float;
  trampoline_bytes : int;
  mappings : int;
  verified : bool;
}

(** Shared (cross-session) context, owned by the server: the caches,
    the fault capability, and the server-level [status] payload.

    [raw_cache] retains loaded input bytes so the [delta] message can reconstruct a
    new revision from a retained base plus changed byte runs.
    [bypassed] counts emits served whole from the result cache — lookups
    the decode cache never saw, so its hit rate under a hot result cache
    reads honestly as "bypassed", not "useless". *)
type ctx = {
  decode_cache : decoded Cache.t;
  result_cache : emit_entry Cache.t;
  raw_cache : bytes Cache.t;
  bypassed : int Atomic.t;
  fault : E9_fault.Fault.t;
  status : unit -> Json.t;
}

type t

(** [create ctx ~obs] — a fresh session emitting telemetry into [obs]
    (one sink per session; the server merges them back). *)
val create : ctx -> obs:E9_obs.Obs.t -> t

val requests : t -> int
val emits : t -> int

(** What [handle] decided: the response to send (none for
    notifications), whether this session must close, and whether the
    whole daemon was asked to stop. *)
type verdict = { reply : Json.t option; close : bool; stop : bool }

(** [handle t req] interprets one request. Never raises: every failure
    is rendered as a typed error response. *)
val handle : t -> Proto.request -> verdict
