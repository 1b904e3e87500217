(** The x86_64 subset CPU.

    Executes code from a {!E9_vm.Space.t} under a simple, documented cost
    model (DESIGN.md §2):

    - every instruction costs 1 cycle;
    - a control transfer whose target lies in a different 4 KiB page costs
      an extra {!far_jump_penalty} cycles (an I-cache/BTB locality proxy —
      this is what makes trampoline round-trips cost what they cost on real
      hardware);
    - a B0 [int3] trap costs {!trap_penalty} cycles (kernel/user context
      switch plus signal dispatch).

    So a run's [cycles] is derived, not counted: [insns +
    far_jump_penalty * far_jumps + trap_penalty * traps].

    Arithmetic is performed on OCaml's 63-bit native integers; guest
    programs must keep 64-bit values below 2^62, which the synthetic
    workload generator guarantees. 8- and 32-bit operations are exact.

    Execution is driven by a superblock cache: straight-line runs of
    instructions (ending at the first control transfer) are decoded and
    {e lowered} once, when the block is built, each into a closure
    specialised to its address (the next RIP, RIP-relative addresses and
    branch targets are constants), its operand forms and its size. The
    lowering is the one definition of every instruction's semantics;
    blocks are cached by entry address in an int-keyed table and replayed
    as a tight array loop with one fuel check and one count of
    instructions per block (a block too long for the remaining
    fuel runs its first lowered instruction alone; a block cut short by a
    fault, an exit or a self-modifying store takes back the instructions
    it did not run). A block remembers the blocks that last followed it,
    at its fall-through address and elsewhere, so most transitions skip
    the cache lookup. The cache is invalidated whenever
    {!E9_vm.Space.generation} advances, i.e. whenever executable memory is
    written or remapped, which is checked after every instruction that
    can store or remap; a remembered successor built under an older
    generation is not followed, so self-modifying code executes correctly
    (DESIGN.md §7). *)

(** Extra cycles of a control transfer that crosses a 4 KiB page. *)
val far_jump_penalty : int

(** Cycles of a B0 [int3] trap. *)
val trap_penalty : int

type config = {
  fuel : int;  (** maximum instructions before giving up *)
  abort_on_violation : bool;
      (** stop at the first LowFat redzone violation (hardening mode) *)
}

val default_config : config

(** Runtime services backing the guest's host calls; see {!Hostcall}. *)
type allocator = {
  name : string;
  malloc : int -> int;
  free : int -> unit;
  check : int -> bool;  (** true = pointer passes the redzone check *)
}

(** A trivially permissive allocator operating as a bump allocator over
    [heap_base]; [check] always passes (no metadata — like glibc). *)
val bump_allocator : E9_vm.Space.t -> heap_base:int -> allocator

type outcome =
  | Exited of int
  | Fault of int * string  (** faulting address and description *)
  | Violation of int  (** LowFat redzone violation at this pointer *)
  | Out_of_fuel

type result = {
  outcome : outcome;
  output : string;  (** concatenation of all [write] syscalls *)
  insns : int;  (** instructions executed *)
  cycles : int;
      (** modeled cycles: [insns + far_jump_penalty * far_jumps +
          trap_penalty * traps] *)
  far_jumps : int;  (** control transfers that crossed a page *)
  traps : int;  (** B0 int3 traps taken *)
  violations : int;  (** redzone violations observed *)
  sigtraps : int;  (** {!Hostcall.trap} instrumentation events *)
  prints : string list;
      (** instrumentation log from {!Hostcall.print}, in emission order —
          a host-side side channel, never part of [output] *)
  counters : (int * int) list;  (** per-site hit counts, sorted by site *)
  block_hits : int;
      (** superblock cache hits (one per block executed, a chained
          transition included) *)
  block_misses : int;  (** superblock cache misses (blocks decoded) *)
  block_invalidations : int;
      (** generation-mismatch flushes of the superblock cache (SMC or
          executable remapping) *)
  blocks_cached : int;  (** blocks resident when the run ended *)
}

(** What a tracer watches at one instruction address. *)
type watch = {
  retire : bool;  (** a retire here calls [on_retire] *)
  stores : bool;  (** this instruction's data writes call [on_store] *)
}

(** Architectural-event hooks for the differential oracle ({!E9_check}).
    [watch] is asked once per instruction when its block is built (and
    again only if the block is rebuilt after an invalidation); its answer
    rides on the lowered instruction, so a retire it does not watch calls
    no hook at all. [on_retire] fires before a watched instruction
    executes, with the pre-execution register file (the array is live —
    copy what you keep) and its [digest]:
    [sum regs.(i) * 0x100000001b3{^15-i}] over the 16 registers, modulo
    2{^62} — the value [Trace.regs_hash regs] computes. The emulator keeps
    the digest up to date from each lowered instruction's written
    registers (host calls and syscalls name every register they can
    write), folding only those written since the last watched retire;
    an untraced run does no digest work. [on_store] fires after every
    successful data write of an instruction whose [stores] bit is set,
    including stack pushes, with the value truncated to the written
    width. Host-call and syscall side effects (allocator, output stream,
    [mmap]) do not raise events. *)
type tracer = {
  watch : addr:int -> insn:E9_x86.Insn.t -> watch;
  on_retire : addr:int -> regs:int array -> digest:int -> unit;
  on_store : addr:int -> size:int -> value:int -> unit;
}

(** The path and descriptor of the program's own binary, as seen by the
    injected loader stub. *)
val self_exe_path : string

val self_exe_fd : int

(** [run ?config ?files space ~entry ~stack_top ~traps ~allocator] executes
    until exit, fault, violation (in hardening mode) or fuel exhaustion.
    [traps] is the B0 table from the loader. The stack grows down from
    [stack_top]; the caller must have mapped it. [files] pre-opens file
    descriptors for the [mmap] syscall — the loader stub's self-open of
    {!self_exe_path} resolves to {!self_exe_fd}. Contents are lazy and
    only forced when the guest actually [mmap]s the descriptor. *)
val run :
  ?config:config ->
  ?files:(int * bytes Lazy.t) list ->
  ?tracer:tracer ->
  E9_vm.Space.t ->
  entry:int ->
  stack_top:int ->
  traps:(int, int) Hashtbl.t ->
  allocator:allocator ->
  result
