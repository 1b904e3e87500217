(** The E9Tool-style frontend: compile [-M MATCH -P PATCH] command pairs
    into rewriter arguments (DESIGN.md §15).

    A {e match} is a selector expression in the {!E9_spec.Patchspec}
    attribute language ([jumps], [op\[0\].type == mem],
    [addr >= 0x400000 and addr < 0x401000], [defined(target)], …),
    optionally extended with [exclude FILE.csv] directives — [;]-separated
    alongside the selectors; multiple selector pieces conjoin. Each CSV
    line is [LO,HI] (hex or decimal, [#] comments): instructions whose
    address falls in any such half-open range are excluded from the match.

    A {e patch} is a word of the one patch language
    ({!E9_spec.Patchspec.patch}): [print], [count], [trap], [empty],
    [lowfat], or a call trampoline [call\[:clean|:naked\] FN(ARG,...)]
    with the documented argument-passing ABI: up to 6 static arguments
    loaded into the System V registers. [FN] is an injected stdlib
    function ([counter], [record]) or an absolute hex address. [clean]
    (the default) brackets the call with RFLAGS + caller-saved save and
    restore on an instrumentation-private stack; [naked] is bare. A patch
    spec's [with] clause takes the same words.

    Rules are first-match-wins, exactly like a patch spec.

    All instrumentation state — the register scratch slot, the counter and
    record cells, the private stack — lives in a fresh read-write page
    appended to the binary ({!inject}) when a rule needs it
    ({!rewrite_input}), so instrumented runs never touch
    guest-visible memory: the trace oracle checks rewrites under any of
    these patches by treating only {!runtime.instr_ranges} as private
    (see {!E9_check.Trace.compare_runs}). A [naked] call pushes its
    return address on the {e guest} stack, but the oracle drops stores
    retired by call-class instructions in both runs, so naked calls are
    checked the same way; a naked target that clobbers state the program
    reads is still reported. *)

exception Error of string

(** {1 The patch language} *)

type patch = E9_spec.Patchspec.patch =
  | Print
  | Count
  | Trap
  | Empty
  | Lowfat
  | Call of {
      mode : E9_core.Trampoline.call_mode;
      fn : string;  (** injected stdlib name or absolute hex address *)
      args : E9_core.Trampoline.call_arg list;
    }

type rule = E9_spec.Patchspec.rule = {
  selector : E9_spec.Patchspec.selector;
  patch : patch;
}

(** [parse_match ?read_file src] parses a selector slot: the tool's
    [-M], the CLI's [patch --select] and the daemon's [patch {selector}]
    and [tool {match}]. It takes [;]-separated selector expressions
    (conjoined) and [exclude FILE.csv] directives. [read_file] loads
    exclusion files (default: the filesystem). Raises {!Error} on bad
    CSV or an empty match and {!E9_spec.Patchspec.Parse_error}, at the
    offending token's line and column in [src], on a bad selector. *)
val parse_match :
  ?read_file:(string -> string) -> string -> E9_spec.Patchspec.selector

(** [rule_of ?read_file ~m ~p ()] is one parsed [-M m -P p] pair:
    [parse_match m] and {!E9_spec.Patchspec.parse_patch}[ p], the patch
    slot's one reader. A malformed patch word raises
    {!E9_spec.Patchspec.Parse_error} at its token. *)
val rule_of : ?read_file:(string -> string) -> m:string -> p:string -> unit -> rule

(** {1 The injected instrumentation runtime} *)

(** The two pages {!inject} appends. *)
type pages = {
  data_base : int;  (** read-write page: scratch, cells, private stack *)
  scratch : int;  (** 8-byte register-save slot (= [data_base]) *)
  counter_cell : int;  (** the [counter] function's accumulator *)
  record_cell : int;  (** the [record] function's accumulator *)
  stack_top : int;  (** top of the instrumentation-private stack *)
  code_base : int;  (** read-execute page holding the stdlib functions *)
  fns : (string * int) list;  (** name → address: [counter], [record] *)
}

(** A rewrite input: the file a rule list rewrites and the runtime it
    carries, if any. *)
type runtime = {
  augmented : Elf_file.t;
      (** the input actually rewritten, exactly as its file
          ([Elf_file.to_bytes augmented]) parses back: the user's file,
          plus the two injected pages when [pages] is set; the
          [original] to verify the output against *)
  pages : pages option;  (** the injected pages; [None] when none were *)
  instr_ranges : (int * int) list;
      (** instrumentation-private address ranges for
          {!E9_check.Trace.compare_runs}: the data page, or [[]] when
          nothing was injected *)
}

(** [inject elf] appends the instrumentation runtime to a copy of [elf]:
    a zeroed read-write data page and a read-execute code page holding
    [counter] (adds 1 to [counter_cell]) and [record] (adds its first
    three integer arguments to [record_cell]); both clobber only private
    cells and the flags. The pages sit one 64 KiB guard above the
    highest existing segment, so the trampoline allocator (which builds
    occupancy from all loaded segments) routes around them
    automatically. Raises {!Error}, before copying anything, when the
    two extra program headers would overwrite content (a file whose
    header table is followed directly by content, as most linked
    binaries are). Front doors reach it only through {!rewrite_input}. *)
val inject : Elf_file.t -> runtime

(** [runtime_in ~original rewritten] is the rewrite input [rewritten]
    was made from: [inject original] when [rewritten] carries that
    runtime (it has [PT_LOAD]s equal to both pages [inject original]
    adds, with the same bytes), else [original] itself with no pages. A
    rewrite of [(rewrite_input original rules).augmented] is recognised
    either way. This is how [check ORIGINAL REWRITTEN] finds the image
    and the [instr_ranges] to verify against from the two files
    alone. *)
val runtime_in : original:Elf_file.t -> Elf_file.t -> runtime

(** {1 Lowering} *)

(** [needs_runtime rules] holds when a rule's patch keeps state in the
    injected runtime: [lowfat] and [print] park %rdi in its scratch
    slot, and a [call] reaches its functions, cells and private stack. *)
val needs_runtime : rule list -> bool

(** [rewrite_input elf rules] is what every front door rewrites for
    [rules]: [inject elf] when [needs_runtime rules], else [elf] itself
    with no pages, so a rule list of [count], [trap] and [empty] patches
    rewrites the user's file byte for byte. *)
val rewrite_input : Elf_file.t -> rule list -> runtime

(** [lower rt rules] compiles first-match-wins rules into the
    select/template pair for {!E9_core.Rewriter.run} of
    [rt.augmented]. [lowfat] lowers to
    {!E9_core.Trampoline.Lowfat_check_scratch} on the runtime's scratch
    slot, and [print] and [call] patches lower against the runtime's
    pages. Raises [Invalid_argument] — before returning — if
    [needs_runtime rules] and [rt] has no pages, and {!Error} (at
    lowering time) if a call patch names an unknown function. *)
val lower :
  runtime ->
  rule list ->
  (Frontend.site -> bool) * (Frontend.site -> E9_core.Trampoline.template)

(** [to_rewriter_args] is {!lower}, under the name the benchmark ledger
    calls. *)
val to_rewriter_args :
  runtime ->
  rule list ->
  (Frontend.site -> bool) * (Frontend.site -> E9_core.Trampoline.template)

(** {1 Driver} *)

type result = {
  rewrite : E9_core.Rewriter.result;
  runtime : runtime;
      (** the rewrite input: verify [rewrite.output] against
          [runtime.augmented], with [runtime.instr_ranges] private *)
}

(** [run ?options ?obs ?fault ?holes elf rules] rewrites
    [(rewrite_input elf rules).augmented]: every rule-selected
    instruction is diverted to its patch's trampoline. [holes] are the
    data extents inside the text, as for {!E9_core.Rewriter.run}; the
    runtime leaves the text where it is, so they hold for the augmented
    input too. [fault] is passed to {!E9_core.Rewriter.run}. [elf] is
    not mutated. The injection is a pure function of the input
    segments, so output bytes are a function of [elf], [rules] and
    [holes]. Raises {!Error} when the runtime cannot be injected or a
    call target cannot be resolved. *)
val run :
  ?options:E9_core.Rewriter.options ->
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  ?holes:(int * int) list ->
  Elf_file.t ->
  rule list ->
  result

(** [size_pct elf r] is the paper's Size% of a rewrite of [elf]: [r]'s
    output file size as a percentage of [elf]'s, the file the user
    passed, whatever runtime the rewrite input carried. *)
val size_pct : Elf_file.t -> E9_core.Rewriter.result -> float
