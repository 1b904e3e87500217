(** Chunk-granular rewrite plans: the capture/replay layer behind
    incremental rewriting (DESIGN.md §14).

    Under content-defined chunking ({!Chunker}), everything the parallel
    chunk pass computes for one chunk — decode, tactic verdicts,
    trampoline bytes and placements, lock/dead marks, text edits — is a
    pure function of the chunk's own bytes and coordinates, the base
    occupancy, the options, and the patch spec restricted to the chunk
    (the arena snapshots only create-time occupancy, and
    {!Layout.absorb} merges extents, not allocator cursors). A [chunk]
    record serializes exactly those outputs, keyed by a string covering
    exactly those inputs, so replaying a valid plan is byte-identical to
    recomputing it — which the static verifier re-checks on every emitted
    binary anyway.

    Plans are never captured or replayed under fault injection or a
    substituted frontend; the seam/fixup pass always runs live. *)

(** One interior selected site's outcome. *)
type outcome =
  | Applied of Stats.tactic
  | Failed  (** every tactic rejected; counted per-site *)
  | Deferred  (** stripe-starved; retried live in the fixup pass *)

type site_plan = {
  s_addr : int;  (** absolute site address *)
  s_outcome : outcome;
  s_tramps : (int * bytes) list;
      (** trampolines this site emitted, chronological [(addr, code)] *)
  s_traps : Loadmap.trap list;  (** B0 trap-table entries, chronological *)
  s_class : int;
      (** allocator placement class: quarter-log2 of the first
          trampoline's distance from the site (telemetry only — replay
          correctness comes from the recorded addresses) *)
}

type chunk = {
  c_lo : int;  (** chunk start, text-relative *)
  c_len : int;
  c_entry : int;  (** sweep position on entering the chunk (text-relative;
                      may exceed [c_lo] when the previous chunk's last
                      instruction overran the seam, or the sweep started
                      past it) *)
  c_exit : int;  (** sweep position after the chunk *)
  c_sites : Frontend.site list;  (** every decoded site starting in the
                                     chunk, ascending *)
  c_plans : site_plan list;
      (** one entry per interior selected site, in S1 processing order
          (descending address) *)
  c_diff : (int * string) list;
      (** text bytes the chunk pass changed: [(chunk-relative offset,
          replacement)] runs, ascending, disjoint *)
  c_locks : (int * int) list;  (** absolute [(addr, len)] locked ranges *)
  c_dead : (int * int) list;  (** absolute dead-byte ranges *)
}

(** Everything {!Rewriter.run} needs to consult a plan store. Chunk
    tasks on concurrent domains share [store]; {!Cache} is mutex-guarded.

    [spec_key ~lo ~len] must return a string that changes whenever the
    caller's [select] or [template] behaviour could change for any site
    in text range [lo, lo+len): the rewriter cannot hash closures, so
    spec identity is the caller's responsibility
    ({!Patchspec.spec_key} derives it for rule lists, spec and tool
    alike). Replay
    additionally validates the recorded interior-site set against the
    live selection, so a wrong [spec_key] degrades to a fallback for
    selection changes — but a template change with an unchanged key
    would replay stale trampoline bytes, caught only by the emit-time
    verifier. *)
type config = { store : chunk Cache.t; spec_key : lo:int -> len:int -> string }

(** Default plan-store capacity, in chunks: the daemon's plan tier
    ([serve --plan-capacity]) and the CLI's [--plan-cache] file. At
    {!Chunker.default} (about 4 KiB per chunk) it covers about 4 MiB of
    text; a plan evicted past it only costs a live search. *)
val capacity : int

(** [key ~hash ~addr ~len ~env] builds the store key for one chunk:
    content hash, absolute coordinates, and an environment string that
    the rewriter fills with the options signature, text geometry,
    segment occupancy hash, sweep start, and the caller's spec fragment
    key. *)
val key : hash:string -> addr:int -> len:int -> env:string -> string

(** {1 Text diffs} *)

(** [diff ~pristine ~current ~lo ~len] — maximal differing runs of
    [current] vs [pristine] over [lo, lo+len), as [(offset - lo,
    replacement)] pairs. *)
val diff : pristine:bytes -> current:bytes -> lo:int -> len:int -> (int * string) list

(** [apply_diff buf ~lo d] writes the recorded runs back at [lo]. *)
val apply_diff : E9_bits.Buf.t -> lo:int -> (int * string) list -> unit

(** {1 File backing} — the CLI's [--plan-cache] file.

    The plan store is a {!Cache}; the file holds its current entries in
    LRU order behind a header pinning the format and the OCaml version,
    and an MD5 of the Marshal payload. The format is private to one build
    of this binary. *)

(** [save store file] writes [store]'s entries atomically. Raises
    [Sys_error] if the file cannot be written. *)
val save : chunk Cache.t -> string -> unit

(** [load file] — a fresh store of {!capacity} entries holding [file]'s
    plans, with their recency order. A missing, foreign-version, corrupt
    or truncated file loads as an empty store (a cache may always start
    cold), never an error. *)
val load : string -> chunk Cache.t
