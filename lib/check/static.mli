(** Independent static verification of a rewritten binary.

    Given only the original and the rewritten {!Elf_file.t}, [verify]
    re-derives the §2 rewriting contract from the bytes alone — it never
    consults the rewriter's [patched_sites] bookkeeping:

    - it diffs the text and classifies every changed byte by decoding
      forward from each change: a patch jump, a punned jump's overhang, a
      T2 evictee rewrite, a T3 victim rewrite, a T3 short jump, or a B0
      trap;
    - it follows every punned [jmp rel32] to its trampoline, checks the
      trampoline lies inside the reserved virtual-address region (mapped by
      the metadata table or by the injected loader stub) and collides with
      no [PT_LOAD] page of the original image;
    - it decodes each trampoline and verifies its terminal transfer returns
      control to the correct continuation address for the instruction that
      was displaced from the served patch site;
    - any changed byte it cannot account for is a verification failure.

    The verifier understands both loader modes: the host-side mapping
    table ([.e9patch.mmap]) and the injected stub (entry point redirected
    into a segment at {!E9_core.Loader_stub.home}), whose mapping table it
    recovers by decoding the stub's own code. *)

(** What a changed (or diversion-covered) byte turned out to be. *)
type byte_class =
  | Patch_jump  (** a (possibly prefixed) [jmp rel32] at a patched site *)
  | Pun_overhang
      (** diversion bytes beyond the original instruction's length *)
  | T2_evictee
      (** a boundary jump whose bytes an earlier diversion puns over *)
  | T3_victim  (** a jump written into (or punned over) a T3 victim *)
  | Short_jump  (** the 2-byte [jmp rel8] at a T3 patch site *)
  | Trap  (** a B0 [int3] *)

val class_name : byte_class -> string

type report = {
  changed_bytes : int;  (** text bytes that differ from the original *)
  diversions : int;  (** [jmp rel32] diversions discovered and followed *)
  short_jumps : int;
  traps : int;
  trampolines_checked : int;
  classified : (int * byte_class) list;
      (** every changed byte, ascending by address *)
}

type error = { addr : int; reason : string }

val pp_report : Format.formatter -> report -> unit
val pp_error : Format.formatter -> error -> unit

(** [verify ?disasm_from ?holes ~original rewritten] re-derives and
    checks the rewriting contract. [disasm_from] is the ChromeMain
    workaround: the address linear disassembly of the original started at
    (changed bytes before it are rejected, since the rewriter never
    patches data). [holes] are interior data extents the rewrite excluded
    (see {!Frontend.disassemble}); the sweep skips them, so the
    verifier's boundary map matches the one the rewriting used instead
    of growing phantoms inside the islands. *)
val verify :
  ?disasm_from:int ->
  ?holes:(int * int) list ->
  original:Elf_file.t ->
  Elf_file.t ->
  (report, error) result
