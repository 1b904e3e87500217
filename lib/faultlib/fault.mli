(** Deterministic fault injection (DESIGN.md §11).

    A [Fault.t] is a capability record threaded through the rewrite
    pipeline. Each subsystem asks it — at well-defined query points —
    whether the next operation should be made to fail. With no rules
    installed ([none]) every query is a constant-time no-op, so the
    production path pays nothing.

    Faults are {e deterministic}: a site counts its occurrences (the
    Nth allocator query fails, regardless of wall clock), and the
    pipeline that issues the queries is serial, so the count is a
    function of the input and the options alone. Rewrite callers build
    a fresh record per run; the daemon keeps one for its lifetime, so
    its [Rpc_*] occurrences count across sessions. *)

(** Where a fault can be injected. *)
type site =
  | Alloc      (** jump-tactic [Layout] queries ([alloc*], [probe*]) and
                   the claims of homes they found free *)
  | B0_alloc   (** the B0 fallback's own trampoline allocation *)
  | Decode     (** disassembly: truncate the site list at a text offset *)
  | Search     (** abort the rewriter's tactic search; the search
                   queries this site once per run, as occurrence 0 *)
  | Trace      (** trace-sink (ndjson) write errors *)
  | Write      (** ELF serialization short-writes *)
  | Rpc_accept (** daemon: drop a just-accepted connection (DESIGN.md §13) *)
  | Rpc_read   (** daemon: a session read fails mid-stream *)
  | Rpc_decode (** daemon: request decoding refuses the message *)
  | Rpc_emit   (** daemon: the emit-time rewrite/serve path fails *)

val sites : site array
val site_name : site -> string
val site_of_name : string -> site option

(** When a rule fires, in terms of the site's occurrence count [n]
    (0-based: the first query is occurrence 0). *)
type trigger =
  | At of int     (** exactly occurrence [n] (for [Decode]: cut offset) *)
  | From of int   (** every occurrence >= [n] *)
  | Every of int  (** occurrences where [n mod k = 0] (k > 0) *)

type rule = { site : site; trigger : trigger }

exception Parse_error of string

(** Raised by pipeline code simulating a crash (e.g. a failed daemon
    emit); callers convert it to their own typed error. *)
exception Injected of string

type t

(** The empty capability: no rules, every query is a no-op. Shared
    freely — all mutators early-return when there are no rules. *)
val none : t

val create : rule list -> t
val is_none : t -> bool

(** [fires t site] counts one occurrence of [site] and reports whether
    any rule fires on it. *)
val fires : t -> site -> bool

(** Smallest trigger threshold over [Decode] rules, interpreted as a
    text offset at which to truncate the decoded-site list. *)
val decode_cut : t -> int option

(** Record that a fault at [site] was acted upon without going through
    [fires] (used with [decode_cut]). *)
val record_fire : t -> site -> unit

(** How many times faults at [site] fired. *)
val fired : t -> site -> int

val fired_total : t -> int

(** Spec grammar (also in DESIGN.md §11): comma-separated rules, each
    [site@N] (fire at occurrence N), [site@N+] (from N on) or [site%N]
    (every Nth); N is decimal or 0x-hex. Sites: alloc, b0alloc, decode,
    search, trace, write, rpcaccept, rpcread, rpcdecode, rpcemit.
    Example: ["alloc@3,write@0,decode@0x400"]. Raises [Parse_error] on
    malformed input. *)
val parse : string -> rule list

val to_string : rule list -> string
