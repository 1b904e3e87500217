(** Synthetic binary generator.

    Produces real, runnable ELF64 executables with the structural features
    that the paper's evaluation inputs have and that the rewriting tactics
    are sensitive to:

    - a realistic instruction-length mix (short vs. near conditional jumps,
      disp8 vs. disp32 memory operands) — this is what decides how often
      punning succeeds and which tactic rescues a failure;
    - indirect jumps through jump tables and indirect calls through
      function-pointer tables whose targets no static analysis is told
      about — the reason control-flow recovery is avoided in the first
      place;
    - PIE or non-PIE load addresses (decides whether negative punned
      displacements are valid);
    - optionally huge [.bss] allocations (the paper's gamess/zeusmp
      limitation L1);
    - heap traffic through host-call [malloc] so the LowFat hardening
      application has something to check.

    Programs are deterministic: they run a fixed number of main-loop
    iterations, accumulate a path- and data-dependent checksum in [%r15],
    print it with a [write] syscall and exit with its low byte. Two
    binaries are behaviourally equivalent iff their outputs match. *)

type profile = {
  name : string;
  seed : int64;
  pie : bool;
  functions : int;  (** function count; text size scales with this *)
  blocks_per_fn : int;  (** basic blocks per function (mean) *)
  short_jump_bias : float;
      (** probability a forward conditional branch uses the 2-byte form *)
  heap_write_bias : float;
      (** probability a block instruction is a heap write *)
  big_disp_bias : float;
      (** probability a heap access uses a disp32 (≥ 5-byte encoding) *)
  small_write_bias : float;
      (** probability a heap write uses a 2-3 byte non-REX encoding
          (forces the punning tactics on application A2) *)
  block_insns : int;
      (** mean body instructions per basic block (dynamic branch
          frequency knob) *)
  pic_table_bias : float;
      (** probability a switch uses a PIC-style table (4-byte offsets from
          the text base) instead of absolute 8-byte pointers — invisible to
          pointer-scanning CFG heuristics *)
  data_in_text_kb : int;
      (** size of a constant pool embedded at the start of .text — the
          §6.2 Chrome challenge for linear disassembly (0 = none) *)
  bss_mb : int;  (** static .bss allocation in MiB (limitation L1) *)
  shared_object : bool;  (** model a DSO: space below base is unavailable *)
  iterations : int;  (** main-loop trips (dynamic instruction count) *)
  lock_bias : float;
      (** probability a heap write is a lock-prefixed read-modify-write
          through a non-REX pointer ([f0 01 0b]-style 3-4 byte sites): the
          extra prefix byte shifts the pun geometry by one *)
  tiny_run_bias : float;
      (** probability a block ends with a dense strip of 2-3 byte non-REX
          instructions — runs long enough that mid-strip patch sites
          exhaust every displaceable eviction victim within rel8 reach,
          forcing T2/T3 chains and ultimately B0 *)
  island_bias : float;
      (** probability a block embeds a mid-function data island (a rel32
          jmp over a random blob whose two ends are checksummed): linear
          disassembly walks straight into it, so correct rewriting needs
          exclusion ranges; ground truth is recorded in
          {!islands_section} *)
  alias_bias : float;
      (** probability a small-write site is preceded by a [mov r32, imm32]
          whose most-significant (last-emitted) immediate byte is a legal
          x86 prefix — bait for a verifier's phantom-prefix / T1-padding
          classifier *)
  far_gap_kb : int;
      (** when > 0, functions return through a shared ret thunk placed
          after a nop desert this many KiB long: every tail jmp carries a
          large rel32 displacement (0 = plain rets) *)
  endbr64_entries : bool;
      (** mark main and every function entry with [endbr64] (CET-style
          binaries); the 4-byte marker is itself displaceable and gives
          campaigns an anchor-count ground truth of [functions + 1] *)
}

(** A reasonable default profile (non-PIE, C-compiler-like mix). *)
val default_profile : profile

(** Load bases: PIE binaries load high (negative displacements stay in the
    canonical range), non-PIE binaries load low (paper §5.1). *)
val base_nonpie : int

val base_pie : int

(** The zero-sized section marking the first real instruction when
    [data_in_text_kb > 0] — the binary's "ChromeMain symbol". *)
val chromemain_marker : string

(** Ground-truth metadata section listing mid-function data islands as
    little-endian [(addr : u64, len : u64)] pairs. Emitted only when
    [island_bias > 0] produced at least one island. *)
val islands_section : string

(** [holes elf] is the generator's ground truth for data inside the text,
    as [(addr, len)] extents: the leading constant pool
    [[text base, chromemain_marker)] when it is non-empty
    ([data_in_text_kb > 0]), then the mid-function islands of
    {!islands_section} in emission order. [[]] for a binary with neither
    (or whose sections were stripped). Raises {!Elf_file.Malformed} when
    the islands section is present but not a whole number of 16-byte
    records. *)
val holes : Elf_file.t -> (int * int) list

(** The profile cannot be generated (the emitted text overflowed its
    budget). Harnesses over random profiles catch this to skip-and-report
    the case rather than abort the whole campaign. *)
exception Error of string

(** [generate profile] builds the ELF image. Raises {!Error} when the
    profile's code does not fit the text budget. *)
val generate : profile -> Elf_file.t

(** [generate_library profile] builds a shared object and returns its
    exported function addresses (its "dynamic symbols"). *)
val generate_library : profile -> Elf_file.t * int array

(** [generate_with_imports profile ~imports] builds an executable that
    calls the given (pre-resolved) library functions through an import
    table every main-loop iteration — the prelinked two-binary process of
    §5.1's mixing scenario. *)
val generate_with_imports : profile -> imports:int array -> Elf_file.t
