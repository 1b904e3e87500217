(** The E9Patch static binary rewriter (paper §5).

    Takes an ELF binary, a patch-location selector, and a trampoline
    template; produces a patched ELF in which every selected instruction is
    diverted to a trampoline by one of the tactics B1/B2/T1/T2/T3 (or the
    optional B0 fallback), under the reverse-order strategy S1. The
    rewriter is policy-free: callers with patch rules (a spec, [-M/-P]
    pairs) get the [select]/[template] pair from the one lowering,
    {!E9_tool.Tool.lower}.

    ELF discipline: existing bytes are patched strictly in place; the
    trampoline blob, mapping table and trap table are appended. No existing
    file offset moves, and the set of jump targets is preserved — the two
    properties that make the rewriter control-flow agnostic. *)

(** How the trampoline mappings reach the patched program's address
    space. [Stub] is the paper's mechanism: machine code injected into the
    binary replaces the entry point and mmaps the pages itself.
    [Table] (the default) records the same mappings in a metadata section
    applied by the emulator's loader — behaviourally identical, without
    per-run stub execution overhead distorting short benchmark runs. *)
type loader_mode = Table | Stub

(** The rewrite was refused or aborted with the input intact: a stub-mode
    loader-home collision detected before mutation, an injected [Search]
    fault, or a trampoline the encoder cannot build for a selected site.
    Callers see either a complete, verified rewrite or this — never a
    half-patched binary (DESIGN.md §11, outcome (c)). *)
exception Error of string

type options = {
  tactics : Tactics.options;
  granularity : int;  (** page-grouping block size in pages (paper's M) *)
  grouping : bool;  (** false = naïve one-to-one physical mapping *)
  reserve_below_base : bool;
      (** shared-object mode: the dynamic linker owns the space below the
          load base (paper §5.1) *)
  loader : loader_mode;
  keep_ranges : (int * int) list;
      (** [(addr, len)] byte ranges of the text that must survive the
          rewrite untouched but are still decoded (the daemon's
          [reserve]). The ranges are pre-locked before any tactic runs,
          so no patch, pun, dead-byte squat or eviction can write into
          them (a site selected inside one simply fails with a [Locked]
          reject, B0 included). Bytes outside the text are ignored. Data
          inside the text is [run]'s [holes], not a keep range. Default
          [[]]. *)
}

val default_options : options

(** [options_signature o] is a stable, injective textual encoding of
    every field of [o] — equal signatures iff the two option values
    drive byte-identical rewrites of the same input. The RPC service
    hashes it into its content-addressed cache key (DESIGN.md §13);
    adding a field to [options] without extending the signature is a
    compile error, so the encoding cannot silently drift. *)
val options_signature : options -> string

type result = {
  output : Elf_file.t;
  stats : Stats.t;
  input_size : int;  (** serialized input file size, bytes *)
  output_size : int;
  trampoline_bytes : int;  (** total trampoline code emitted *)
  virtual_blocks : int;
  physical_blocks : int;
  mappings : int;  (** loader mmap calls in the output binary *)
  patched_sites : (int * Stats.tactic) list;
      (** per-site outcome, in descending address order *)
  shards : int;
      (** always 1: the whole text is one S1 pass (kept for record
          readers that report it) *)
  setup_s : float;
      (** tactic-context setup time (lock tables), wall clock *)
  occupancy : Layout.occupancy;  (** final allocator occupancy gauges *)
  index : Frontend.index;
      (** the input's text as the frontend handed it over: the sweep the
          rewrite patched by, which the oracles take instead of sweeping
          the original again ({!Frontend.linear_sweep}) *)
}

(** [run ?options ?holes elf ~select ~template] rewrites [elf]. The
    input is not mutated. [select] chooses patch locations among the
    frontend's sites; [template] supplies each site's trampoline payload.
    [holes] (default none) are the [(addr, len)] data extents inside the
    text — a leading pool ({!Frontend.leading_hole}, the §6.2
    workaround), mid-function islands: the sweep decodes around them
    ({!Frontend.index_fold}) and they are pre-locked next to
    [options.keep_ranges], so no byte inside one changes. The sweep runs
    [select] as it goes: a selected site keeps its decoded record, every
    other instruction only its length ({!Frontend.index}).
    [result.index] is that index.

    [frontend] substitutes a different disassembler entirely (e.g.
    {!Frontend.disassemble_recursive}, or an outside one through
    {!Frontend.index_of_sites}): E9Patch only consumes instruction
    locations and sizes, so any frontend that reports them correctly
    works, and partial frontends yield partial instrumentation, never
    incorrectness. Its index is [result.index]; [select] sees its starts
    in address order ({!Frontend.sites}); [holes] are still locked, but
    decoding around them is then the frontend's job. Its lengths must
    match the decoder's: the tactics decode a neighbour (T2's successor,
    T3's victims) again from the original bytes ({!Frontend.decode_at}).
    [obs] (default {!E9_obs.Obs.null}) receives per-tactic attempt
    records, phase spans ([decode], [tactic_search], [layout],
    [serialize]) and allocator occupancy gauges; with the null sink
    every emission point is a single branch.

    [fault] (default {!E9_fault.Fault.none}) threads the deterministic
    fault-injection capability through the pipeline: [Decode] rules
    truncate the disassembly (partial instrumentation), [Alloc] /
    [B0_alloc] rules starve the tactics (degradation to B0 or per-site
    failure), a [Search] rule matching occurrence 0 aborts the tactic
    search (typed {!Error}): the search queries that site once per run.

    The rewrite is the paper's one serial S1 pass over the whole text:
    selected sites are patched in descending address order against one
    allocator and one lock map, after one serial linear sweep
    ({!Frontend.index_fold}). [jobs] is ignored, the way
    [result.shards] is always 1: it is kept only for callers that still
    pass it.

    Raises {!Error} on a refused stub-mode input, a frontend length that
    disagrees with the decoder where a tactic reads a neighbour (naming
    the site and that address), an injected [Search] fault, or a
    trampoline that cannot be encoded for a selected site (e.g. a
    displaced [call] whose target is out of rel32 reach from the
    trampoline); the last names the site address. *)
val run :
  ?options:options ->
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  ?jobs:int ->
  ?holes:(int * int) list ->
  ?frontend:(Elf_file.t -> Frontend.index) ->
  Elf_file.t ->
  select:(Frontend.site -> bool) ->
  template:(Frontend.site -> Trampoline.template) ->
  result

(** [size_pct r] is the paper's Size% column: output file size as a
    percentage of the input's. *)
val size_pct : result -> float
