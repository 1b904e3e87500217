(** The x86_64 subset CPU.

    Executes code from a {!E9_vm.Space.t} under a simple, documented cost
    model (DESIGN.md §2):

    - every instruction costs 1 cycle;
    - a control transfer whose target lies in a different 4 KiB page costs
      an extra [far_jump_penalty] cycles (an I-cache/BTB locality proxy —
      this is what makes trampoline round-trips cost what they cost on real
      hardware);
    - a B0 [int3] trap costs [trap_penalty] cycles (kernel/user context
      switch plus signal dispatch).

    Arithmetic is performed on OCaml's 63-bit native integers; guest
    programs must keep 64-bit values below 2^62, which the synthetic
    workload generator guarantees. 8- and 32-bit operations are exact.

    Execution is driven by a superblock cache: straight-line runs of
    decoded instructions (ending at the first control transfer) are cached
    by entry address and replayed as a tight array loop with one cache
    lookup and one fuel check per block. The cache is invalidated whenever
    {!E9_vm.Space.generation} advances, i.e. whenever executable memory is
    written or remapped, so self-modifying code executes correctly
    (DESIGN.md §7). *)

type config = {
  far_jump_penalty : int;
  trap_penalty : int;
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
  cycles : int;  (** modeled cycles *)
  far_jumps : int;  (** control transfers that crossed a page *)
  traps : int;  (** B0 int3 traps taken *)
  violations : int;  (** redzone violations observed *)
  sigtraps : int;  (** {!Hostcall.trap} instrumentation events *)
  prints : string list;
      (** instrumentation log from {!Hostcall.print}, in emission order —
          a host-side side channel, never part of [output] *)
  counters : (int * int) list;  (** per-site hit counts, sorted by site *)
  last_rips : int list;
      (** the up-to-32 most recent instruction addresses, oldest first —
          fault diagnostics *)
  block_hits : int;  (** superblock cache hits (one per block executed) *)
  block_misses : int;  (** superblock cache misses (blocks decoded) *)
  block_invalidations : int;
      (** generation-mismatch flushes of both decoded-code caches (SMC or
          executable remapping) *)
  blocks_cached : int;  (** blocks resident when the run ended *)
}

(** Architectural-event hooks for the differential oracle ({!E9_check}).
    [on_retire] fires once per instruction, before it executes, with the
    pre-execution register file (the array is live — copy what you keep).
    [on_store] fires after every successful data write, including stack
    pushes, with the value truncated to the written width. Host-call and
    syscall side effects (allocator, output stream, [mmap]) do not raise
    events. *)
type tracer = {
  on_retire : addr:int -> insn:E9_x86.Insn.t -> regs:int array -> unit;
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
