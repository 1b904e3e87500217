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
    loader-home collision detected before mutation, or an injected chunk
    fault. Callers see either a complete, verified rewrite or this —
    never a half-patched binary (DESIGN.md §11, outcome (c)). *)
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
          rewrite untouched — mid-text data islands, hand-excluded
          constant pools. The ranges are pre-locked in every lock domain
          before any tactic runs, so no patch, pun, dead-byte squat or
          eviction can write into them (a site selected inside one simply
          fails with a [Locked] reject, B0 included). Clipped per lock
          domain exactly like ordinary locks, so jobs-invariance is
          preserved. Default [[]]. *)
  chunking : Chunker.params option;
      (** The text decomposition. [None] (the default) rewrites the whole
          text as one chunk: the paper's serial S1 pass. [Some p] splits
          it into content-defined chunks ({!Chunker.boundaries} under
          [p]), each one parallel task allocating from the stripes mapped
          to its own text range ({!Layout.shard_range}). Geometry is a
          function of the text alone — never of [jobs] — so byte-identity
          across worker counts is preserved; and because a chunk's
          boundaries and stripe ownership depend only on its own bytes
          and coordinates, its rewrite plan can be cached and replayed
          across revisions of the binary (the [plan] argument to
          {!run}). *)
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
      (** chunks the text was split into (the work-stealing scheduler's
          task count; 1 = plain serial rewrite) *)
  steals : int;
      (** chunks executed by a worker other than their home worker —
          scheduler telemetry only, never an input to any decision *)
  setup_s : float;
      (** summed per-chunk setup time (arena + lock table + context
          construction), wall clock *)
  occupancy : Layout.occupancy;  (** final allocator occupancy gauges *)
  plan_hits : int;
      (** chunks whose cached plan replayed (decode + tactic search both
          skipped); 0 unless a plan store was active *)
  plan_misses : int;  (** chunks searched live and freshly captured *)
  plan_conflicts : int;
      (** chunks whose cached plan was abandoned after a placement
          refusal ([Layout.alloc_at] denied a recorded extent) and fell
          back to live search *)
}

(** [run ?options ?disasm_from elf ~select ~template] rewrites [elf]. The
    input is not mutated. [select] chooses patch locations among the
    frontend's sites; [template] supplies each site's trampoline payload.
    [disasm_from] starts the linear sweep at a known code address — the
    §6.2 workaround for text sections that mix data and code. [frontend]
    substitutes a different disassembler entirely (e.g.
    {!Frontend.disassemble_recursive}) — E9Patch only consumes instruction
    locations and sizes, so any frontend that reports them correctly
    works, and partial frontends yield partial instrumentation, never
    incorrectness. [obs] (default {!E9_obs.Obs.null}) receives per-tactic
    attempt records, phase spans ([decode], [tactic_search], [layout],
    [serialize]) and allocator occupancy gauges; with the null sink every
    emission point is a single branch.

    [fault] (default {!E9_fault.Fault.none}) threads the deterministic
    fault-injection capability through the pipeline: [Decode] rules
    truncate the disassembly (partial instrumentation), [Alloc] /
    [B0_alloc] rules starve the tactics (degradation to B0 or per-site
    failure), [Shard] rules abort a chunk task (typed {!Error}). The
    record is forked per chunk and merged back in canonical order, so
    injected faults preserve jobs-invariance.

    [jobs] sets the worker count for the parallel tactic search and the
    chunked decode (default: the [E9_JOBS] environment variable, else 1);
    the spawned domain count is additionally capped at
    [Domain.recommended_domain_count ()], since oversubscribed domains
    pay minor-GC synchronization without buying parallelism. The text is
    decomposed into chunks — the whole text as one, or
    [options.chunking]'s content-defined chunks — drained by a
    work-stealing scheduler ({!E9_bits.Pool.map_stealing}); each chunk
    runs the full S1 search over its interior sites against a private
    arena owning the stripes mapped to the chunk's text range (stripe
    ownership belongs to the chunk, not the executing worker), and sites
    within {!Tactics.max_reach} of an inner chunk edge — plus interior
    sites deferred as stripe-starved ({!Tactics.patch_deferrable}) — are
    patched in a serial fixup pass over the merged state, in canonical
    descending address order. With one chunk the arena is unstriped,
    nothing is deferred and the fixup pass is empty, so the rewrite is
    the plain serial S1 pass and [jobs] only spreads the decode.
    Chunk geometry never depends on [jobs], per-chunk results merge in
    fixed chunk order, and the deferred set depends only on
    deterministic per-arena state, so output bytes, stats and
    patched-site lists are identical for every [jobs] value and every
    steal schedule.

    [jitter i] (default: nothing) runs in the claiming worker just
    before chunk [i] executes — a test hook for skewing steal schedules
    (the determinism property races randomized delays against the
    byte-identity guarantee).

    [plan] (with [options.chunking = Some _]) activates the incremental
    plan cache (DESIGN.md §14): every chunk's key — content hash,
    coordinates, options signature, text geometry, segment occupancy,
    sweep start, and the caller's [spec_key] fragment (for rule lists,
    {!E9_spec.Patchspec.spec_key}) — is looked up in
    [plan.store]; a hit that validates against the live decode and
    selection replays its recorded decode, trampolines, text edits,
    locks and verdicts straight into the merge (skipping decode and
    tactic search for that chunk), a placement refusal falls back to
    live search, and every live-searched chunk is captured back into the
    store. The seam/fixup pass always runs live, after capture, so
    cross-chunk writes are recomputed on every run. Replay is provably
    byte-identical to recomputation: per-chunk work is a pure function
    of exactly the keyed inputs, and the plan path changes {e only} how
    a chunk's outputs are obtained, never what the merge or fixup sees.
    Capture and replay are disabled (the rewrite still works, live)
    under fault injection or a substituted [frontend]. *)
val run :
  ?options:options ->
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  ?jobs:int ->
  ?jitter:(int -> unit) ->
  ?plan:Plan.config ->
  ?disasm_from:int ->
  ?frontend:(Elf_file.t -> Frontend.text * Frontend.site list) ->
  Elf_file.t ->
  select:(Frontend.site -> bool) ->
  template:(Frontend.site -> Trampoline.template) ->
  result

(** [size_pct r] is the paper's Size% column: output file size as a
    percentage of the input's. *)
val size_pct : result -> float
