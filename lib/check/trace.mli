(** Differential execution oracle.

    Runs the original and the rewritten binary under {!E9_emu} and compares
    architectural traces modulo the detour instructions the rewriter
    inserts. Three streams are compared (DESIGN.md §8):

    - the retired-instruction sequence filtered to {e original instruction
      boundaries} (patched sites retire their diversion — jump, short jump
      or int3 — at exactly the original address, so the filtered streams
      align one-to-one);
    - the pre-execution register file, hashed, at every boundary retire;
    - every data store as an [(address, size, value)] triple, except stores
      retired by [call]-class instructions: a displaced call pushes its
      trampoline continuation, not the original return address — the one
      architecturally visible difference the paper's control-flow
      transparency caveat allows.

    plus the final outcome and output stream. The oracle is specified for
    {!E9_core.Trampoline.Empty} templates and for {e trace-transparent}
    instrumentation: templates whose extra state lives in host-side
    channels (hostcall counters, the print log) or in declared
    instrumentation-private segments ([instr_ranges]). Instrumentation
    that clobbers registers at a boundary or writes program-visible
    memory would — correctly — be reported as a divergence. *)

type stats = {
  events : int;  (** total trace events compared (per run) *)
  boundary_retires : int;
  stores : int;
  insns_original : int;  (** raw instructions executed, diagnostics only *)
  insns_rewritten : int;
}

val pp_stats : Format.formatter -> stats -> unit

(** [compare_runs ?config ?disasm_from ?holes ~original rewritten]
    executes both binaries and compares their traces; [Error] describes
    the first divergence. [disasm_from] must match the value the
    rewriting used, so boundary sets agree. [holes] (interior data
    extents, see {!Frontend.disassemble}) likewise reproduces an
    island-excluding rewrite's boundary set.
    [instr_ranges] declares instrumentation-private [(lo, hi)] address
    ranges (the tool's injected scratch/code segments): retires inside
    them and stores targeting them are dropped — symmetrically in both
    runs — so register save/restore on an instrumentation-private stack
    stays invisible while every program-visible store is still
    compared. *)
val compare_runs :
  ?config:E9_emu.Cpu.config ->
  ?disasm_from:int ->
  ?holes:(int * int) list ->
  ?instr_ranges:(int * int) list ->
  original:Elf_file.t ->
  Elf_file.t ->
  (stats, string) result
