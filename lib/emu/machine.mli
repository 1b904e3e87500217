(** One-call execution of an ELF image: create an address space, load the
    binary (including any E9Patch mapping/trap tables), map a stack, and
    run to completion. *)

type t = {
  space : E9_vm.Space.t;
  entry : int;
  traps : (int, int) Hashtbl.t;
  mapping_count : int;
}

(** Default stack placement: 1 MiB ending at [0x7fff_ff00_0000]. *)
val stack_top : int

(** [boot elf] creates a space and loads [elf] plus a stack. *)
val boot : Elf_file.t -> t

(** [run ?config ?allocator ?libs elf] boots and executes [elf]. The
    allocator defaults to {!Cpu.bump_allocator} over a high heap region —
    standing in for the system malloc. [libs] (shared objects) are loaded
    into the same space first (the prelinked-process model): the §5.1
    "mixing patched and non-patched code" scenario, where any subset of
    the binaries may have been rewritten. *)
val run :
  ?config:Cpu.config ->
  ?make_allocator:(E9_vm.Space.t -> Cpu.allocator) ->
  ?tracer:Cpu.tracer ->
  ?libs:Elf_file.t list ->
  Elf_file.t ->
  Cpu.result

(** Heap placement used by the default allocator. *)
val heap_base : int

(** [equivalent a b] — observational equivalence of two runs: same outcome
    and same output stream (the correctness criterion for rewriting). *)
val equivalent : Cpu.result -> Cpu.result -> bool
