(** The disassembler frontend.

    E9Patch itself does not disassemble: it consumes instruction locations
    and sizes produced by a frontend and trusts them (paper §2.2). This
    module is the paper's "basic wrapper frontend that applies linear
    disassembly to the (.text) section of the input binary". Any other
    frontend (superset, probabilistic, partial) could be substituted: the
    rewriter only consumes {!site} values. *)

type site = {
  addr : int;  (** virtual address of the instruction *)
  len : int;  (** size in bytes *)
  insn : E9_x86.Insn.t;  (** decoded form (classification only) *)
}

(** Location and extent of the text being rewritten. *)
type text = {
  base : int;  (** virtual address of the first byte *)
  offset : int;  (** file offset of the first byte *)
  size : int;
}

(** The input cannot be disassembled as requested (no text section, or a
    sweep start outside it). Raised instead of patching anything; the CLI
    renders it as a clean error. *)
exception Error of string

(** [find_text elf] locates the code to rewrite: the [.text] section if
    present, otherwise the first executable [PT_LOAD] segment. *)
val find_text : Elf_file.t -> text option

(** [disassemble ?from ?holes ?fault elf] is the serial linear sweep of
    the text, returning every instruction in address order. [from] starts
    the sweep at a known code address — the paper's §6.2 workaround for
    binaries (Chrome) whose text section mixes data and code: bytes
    before [from] are not disassembled and therefore never patched.

    [holes] (default none) generalizes the workaround past a leading
    pool: the sweep never decodes inside the [(addr, len)] extents
    (mid-function data islands, constant pools known from ground truth)
    and re-synchronizes at each hole's end. A decode that overruns into a
    hole is also corrected — the next sweep position inside the hole
    resumes at its end — so the sweep is self-correcting at both edges.
    [from] is the special case of one leading hole [[base, from)]. Sites
    inside holes are never produced, hence never patched.

    [fault] (default {!E9_fault.Fault.none}) may carry [Decode] rules;
    the smallest rule value truncates the site list at that text offset —
    a strict prefix of the true decode, i.e. partial disassembly, which
    the rewriter turns into partial instrumentation (§2.2). Raises
    {!Error} if the text cannot be found or [from] lies outside it. *)
val disassemble :
  ?from:int -> ?holes:(int * int) list -> ?fault:E9_fault.Fault.t ->
  Elf_file.t -> text * site list

(** Patch-location selectors for the paper's two applications. *)

(** A1: all [jmp]/[jcc] instructions (§6.1). *)
val select_jumps : site -> bool

(** A2: all instructions that may write through a heap pointer (§6.3). *)
val select_heap_writes : site -> bool

(** [disassemble_recursive elf] is an alternative frontend: recursive
    descent from the entry point, following direct branches and calls and
    stopping at indirect control flow. It discovers only a {e subset} of
    the instructions (indirect targets stay invisible) — which is fine for
    E9Patch: its patching is local, so partial disassembly information
    yields partial instrumentation, never incorrectness (§2.2). Returned
    sites are in address order. *)
val disassemble_recursive : Elf_file.t -> text * site list
