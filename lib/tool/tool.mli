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
    appended to the binary ({!inject}), so instrumented runs never touch
    guest-visible memory: the trace oracle checks rewrites under any of
    these patches by treating only {!runtime.instr_ranges} as private
    (see {!E9_check.Trace.compare_runs}). The one exception is a [naked]
    call, whose [call] pushes its return address on the {e guest} stack —
    verify those with {!E9_emu.Machine.equivalent}, not the trace
    oracle. *)

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

(** [parse_patch src] parses a [-P] argument
    ({!E9_spec.Patchspec.parse_patch}). Raises {!Error}. *)
val parse_patch : string -> patch

(** [parse_match ?read_file src] parses a [-M] argument: [;]-separated
    selector expressions (conjoined) and [exclude FILE.csv] directives.
    [read_file] loads exclusion files (default: the filesystem). Raises
    {!Error} on bad CSV or an empty match and
    {!E9_spec.Patchspec.Parse_error} on a bad selector. *)
val parse_match :
  ?read_file:(string -> string) -> string -> E9_spec.Patchspec.selector

(** [rule_of ?read_file ~m ~p ()] is one parsed [-M m -P p] pair. *)
val rule_of : ?read_file:(string -> string) -> m:string -> p:string -> unit -> rule

(** {1 The injected instrumentation runtime} *)

type runtime = {
  augmented : Elf_file.t;
      (** input copy plus the two injected pages, exactly as the file
          [tool --emit-augmented] writes ([Elf_file.to_bytes augmented])
          parses back; the rewrite input, and the [original] to verify
          the output against (in memory or as that file) *)
  data_base : int;  (** read-write page: scratch, cells, private stack *)
  scratch : int;  (** 8-byte register-save slot (= [data_base]) *)
  counter_cell : int;  (** the [counter] function's accumulator *)
  record_cell : int;  (** the [record] function's accumulator *)
  stack_top : int;  (** top of the instrumentation-private stack *)
  code_base : int;  (** read-execute page holding the stdlib functions *)
  fns : (string * int) list;  (** name → address: [counter], [record] *)
  instr_ranges : (int * int) list;
      (** instrumentation-private address ranges for
          {!E9_check.Trace.compare_runs} *)
}

(** [inject elf] appends the instrumentation runtime to a copy of [elf]:
    a zeroed read-write data page and a read-execute code page holding
    [counter] (adds 1 to [counter_cell]) and [record] (adds its first
    three integer arguments to [record_cell]); both clobber only private
    cells and the flags. The pages sit one 64 KiB guard above the
    highest existing segment, so the trampoline allocator (which builds
    occupancy from all loaded segments) routes around them
    automatically. *)
val inject : Elf_file.t -> runtime

(** {1 Lowering} *)

(** [lower ?runtime rules] compiles first-match-wins rules into the
    select/template pair for {!E9_core.Rewriter.run}. Without a runtime
    (a plain patch spec) [lowfat] lowers to
    {!E9_core.Trampoline.Lowfat_check}; with one, to the trace-transparent
    [Lowfat_check_scratch] on the runtime's scratch slot, and [print] and
    [call] patches lower against the runtime's pages. Raises {!Error} —
    before returning — if a rule is [print] or [call] and there is no
    runtime, and (at lowering time) if a call patch names an unknown
    function. *)
val lower :
  ?runtime:runtime ->
  rule list ->
  (Frontend.site -> bool) * (Frontend.site -> E9_core.Trampoline.template)

(** [to_rewriter_args rt rules] is [lower ~runtime:rt rules]. *)
val to_rewriter_args :
  runtime ->
  rule list ->
  (Frontend.site -> bool) * (Frontend.site -> E9_core.Trampoline.template)

(** {1 Driver} *)

type result = {
  rewrite : E9_core.Rewriter.result;
  runtime : runtime;
      (** verify [rewrite.output] against [runtime.augmented], with
          [runtime.instr_ranges] private *)
}

(** [run ?options ?obs ?disasm_from elf rules] injects the runtime and
    rewrites [runtime.augmented]: every rule-selected instruction is
    diverted to its patch's trampoline. [elf] is not mutated. The
    injection is a pure function of the input segments, so output bytes
    are a function of [elf] and [rules]. Raises {!Error} on an empty rule
    list or an unresolvable call target. *)
val run :
  ?options:E9_core.Rewriter.options ->
  ?obs:E9_obs.Obs.t ->
  ?disasm_from:int ->
  ?frontend:(Elf_file.t -> Frontend.text * Frontend.site list) ->
  Elf_file.t ->
  rule list ->
  result
