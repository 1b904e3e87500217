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

    plus the final outcome and output stream. Each run folds its event
    stream into a rolling hash and a count and keeps nothing else; only
    when outcome and output agree but the hashes or counts differ are
    both programs run again, their first 2{^17} events recorded, to name
    the first divergent event (the emulator is deterministic, so the
    second runs reproduce the first). The oracle is specified for
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
  block_hits : int;
      (** the emulator's block-cache counters, both runs summed
          (diagnostics only, not printed by {!pp_stats}) *)
  block_misses : int;
  block_invalidations : int;
}

val pp_stats : Format.formatter -> stats -> unit

(** [compare_runs ?config ?holes ?index ~original rewritten] executes
    both binaries and compares their traces; [Error] describes the first
    divergence. The original instruction boundaries are the starts of
    the linear sweep of [original]'s text ({!Frontend.linear_sweep}):
    [index] when given — the rewrite's own [result.index], so the text
    is not swept again — else a sweep under [holes] (the data extents
    inside the text, see {!Frontend.index_fold}). The holes must match
    the ones the rewriting used, so the boundary sets agree; an [index]
    carries its own. Raises [Invalid_argument] when [index] is not the
    linear sweep of [original]'s text (under [holes], when given).
    [instr_ranges] declares instrumentation-private [(lo, hi)] address
    ranges (the tool's injected scratch/code segments): retires inside
    them and stores targeting them are dropped — symmetrically in both
    runs — so register save/restore on an instrumentation-private stack
    stays invisible while every program-visible store is still
    compared. *)
val compare_runs :
  ?config:E9_emu.Cpu.config ->
  ?holes:(int * int) list ->
  ?index:Frontend.index ->
  ?instr_ranges:(int * int) list ->
  original:Elf_file.t ->
  Elf_file.t ->
  (stats, string) result

(** [boundary ?holes ?index ?instr_ranges ~original] is the boundary
    test {!compare_runs} filters both runs by: [boundary addr] holds iff
    an instruction of the linear sweep of [original]'s text starts at
    [addr] (under [holes], or [index] as in {!compare_runs}) and [addr]
    lies in no [instr_ranges] range. *)
val boundary :
  ?holes:(int * int) list ->
  ?index:Frontend.index ->
  ?instr_ranges:(int * int) list ->
  original:Elf_file.t ->
  int ->
  bool

(** [regs_hash regs] is the register-file hash a boundary retire
    contributes (printed as [regs %x] in a divergence): the 16
    general-purpose registers of [regs] mixed in order from 0 by
    [h <- (h * 0x100000001b3 + r) land max_int]. The oracle does not
    compute it: it mixes in the digest {!E9_emu.Cpu.tracer}'s
    [on_retire] receives, which the emulator keeps up to date from the
    registers each instruction writes. This is the reference that digest
    must equal at every watched retire. *)
val regs_hash : int array -> int

(** [run_digest ?config ?holes ?index ?instr_ranges ~original elf] runs
    [elf] alone under the filter {!compare_runs} builds from [original],
    [holes], [index] and [instr_ranges], and returns the run's result,
    its event count and its rolling event hash: one side of a
    comparison, for pinning the emulator's behaviour
    (test/emu_digests.txt). *)
val run_digest :
  ?config:E9_emu.Cpu.config ->
  ?holes:(int * int) list ->
  ?index:Frontend.index ->
  ?instr_ranges:(int * int) list ->
  original:Elf_file.t ->
  Elf_file.t ->
  E9_emu.Cpu.result * int * int
