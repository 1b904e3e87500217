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
    loader-home collision detected before mutation, an injected [Shard]
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
          rewrite untouched — mid-text data islands, hand-excluded
          constant pools. The ranges are pre-locked before any tactic
          runs, so no patch, pun, dead-byte squat or eviction can write
          into them (a site selected inside one simply fails with a
          [Locked] reject, B0 included). Bytes outside the text are
          ignored. Default [[]]. *)
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
      (** tactic-context setup time (lock tables, site index), wall
          clock *)
  occupancy : Layout.occupancy;  (** final allocator occupancy gauges *)
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
    failure), a [Shard] rule matching key 0 aborts the tactic search
    (typed {!Error}).

    The rewrite is the paper's one serial S1 pass over the whole text:
    selected sites are patched in descending address order against one
    allocator and one lock map, after one serial linear sweep
    ({!Frontend.disassemble}). [jobs] is ignored, the way
    [result.shards] is always 1: it is kept only for callers that still
    pass it.

    Raises {!Error} on a refused stub-mode input, an injected [Shard]
    fault, or a trampoline that cannot be encoded for a selected site
    (e.g. a displaced [call] whose target is out of rel32 reach from
    the trampoline); the last names the site address. *)
val run :
  ?options:options ->
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  ?jobs:int ->
  ?disasm_from:int ->
  ?frontend:(Elf_file.t -> Frontend.text * Frontend.site list) ->
  Elf_file.t ->
  select:(Frontend.site -> bool) ->
  template:(Frontend.site -> Trampoline.template) ->
  result

(** [size_pct r] is the paper's Size% column: output file size as a
    percentage of the input's. *)
val size_pct : result -> float
