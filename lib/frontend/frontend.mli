(** The disassembler frontend.

    E9Patch itself does not disassemble: it consumes instruction locations
    and sizes produced by a frontend and trusts them (paper §2.2). That
    is the whole contract: an {!index}, the length of each instruction
    start over the text's original bytes. This module is the paper's
    "basic wrapper frontend that applies linear disassembly to the
    (.text) section of the input binary" ({!index_fold}); any other
    frontend (recursive descent, superset, partial, an outside
    disassembler) hands its locations and sizes over through
    {!index_of_sites}. A length must match the decoder's where an
    instruction is read ({!decode_at}). The rewrite returns its index,
    and the oracles and the daemon read it instead of sweeping the text
    again ({!linear_sweep}). *)

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

(** [leading_hole elf addr] is the hole [(base, addr - base)] that makes
    the sweep start at [addr], a known code address: the paper's §6.2
    workaround for binaries (Chrome) whose text section mixes data and
    code. The bytes below [addr] are then never disassembled, and the
    rewriter locks them like every hole. Raises {!Error} if the text
    cannot be found or [addr] lies outside it. *)
val leading_hole : Elf_file.t -> int -> int * int

(** {1 The text index}

    What the rewriter and the oracles keep of a sweep: one length byte
    per text byte (0 where no instruction starts) instead of one decoded
    {!site} per instruction, and the swept image's own bytes, borrowed,
    not copied. An instruction is decoded again where it lies, never
    past the text's end, only when it is read ({!decode_at}, {!sites}),
    so the swept image must not be patched while its index is in use:
    the rewriter sweeps its input and patches a copy. *)

type index

(** [index_fold ?holes ?fault elf ~init f] is the serial linear sweep of
    the text: [f] sees every instruction in address order, starting from
    [init], and the returned index, which borrows [elf]'s bytes, records
    every instruction's length. [f] is the only place a {!site} can
    outlive the sweep.

    [holes] (default none) are the [(addr, len)] extents of data inside
    the text: a leading constant pool ({!leading_hole}), mid-function
    data islands, constant pools known from ground truth. The sweep
    never decodes inside a hole and re-synchronizes at its end. A decode
    that overruns into a hole is also corrected — the next sweep
    position inside the hole resumes at its end — so the sweep is
    self-correcting at both edges. Sites inside holes are never
    produced, hence never patched.

    [fault] (default {!E9_fault.Fault.none}) may carry [Decode] rules;
    the smallest rule value stops the sweep at that text offset — a
    strict prefix of the true decode, i.e. partial disassembly, which
    the rewriter turns into partial instrumentation (§2.2). Raises
    {!Error} if the text cannot be found. *)
val index_fold :
  ?holes:(int * int) list -> ?fault:E9_fault.Fault.t ->
  Elf_file.t -> init:'a -> ('a -> site -> 'a) -> index * 'a

(** [index ?holes ?fault elf] is {!index_fold} keeping nothing else. *)
val index :
  ?holes:(int * int) list -> ?fault:E9_fault.Fault.t -> Elf_file.t -> index

(** [disassemble ?holes ?fault elf] is {!index_fold} collecting every
    instruction, in address order. *)
val disassemble :
  ?holes:(int * int) list -> ?fault:E9_fault.Fault.t ->
  Elf_file.t -> text * site list

(** [index_of_sites text code sites] is the index of another frontend's
    [sites] over [text], whose original bytes [code] holds from
    [text.offset] on ([E9_bits.Buf.raw] of the image's data). The index
    keeps [code], so the caller must not mutate it. Raises {!Error} when
    [code] ends before the text, on a site outside the text or with a
    length outside [1, 255]. The lengths are not checked against the
    decoder here: {!decode_at} checks each one it reads. *)
val index_of_sites : text -> Bytes.t -> site list -> index

(** The text the index covers. *)
val index_text : index -> text

(** [swept_holes idx] is [Some holes] (sorted, empty ones dropped) when
    [idx] is a full linear sweep ({!index_fold}) under [holes], and
    [None] when a [Decode] fault cut it or {!index_of_sites} built it. *)
val swept_holes : index -> (int * int) list option

(** [length_at idx addr] is the length of the instruction starting at
    [addr], or 0 when none does (or [addr] lies outside the text). *)
val length_at : index -> int -> int

(** [decode_at idx addr] decodes the original instruction at [addr], a
    start recorded in [idx]. Raises {!Error} naming [addr] when no
    instruction starts there or when the decoder's length differs from
    the recorded one. *)
val decode_at : index -> int -> site

(** [sites idx ~init f] folds [f] over the starts [idx] records in
    ascending address order, each decoded again with its recorded
    length (trusted here; {!decode_at} checks one it reads). *)
val sites : index -> init:'a -> ('a -> site -> 'a) -> 'a

(** [linear_sweep ?holes ?index elf] is the linear sweep of [elf]'s text
    an oracle reads, with its holes: [index ?holes elf], or [index]
    itself when it is exactly that sweep — its text is [find_text elf]
    with the same bytes (the very bytes it borrows, or equal ones), it
    is a full linear sweep ({!swept_holes}), and under [holes] when
    given. Raises [Invalid_argument] when [index] is not that sweep, {!Error} if the text cannot be found. *)
val linear_sweep :
  ?holes:(int * int) list -> ?index:index -> Elf_file.t ->
  index * (int * int) list

(** Patch-location selectors for the paper's two applications. *)

(** A1: all [jmp]/[jcc] instructions (§6.1). *)
val select_jumps : site -> bool

(** A2: all instructions that may write through a heap pointer (§6.3). *)
val select_heap_writes : site -> bool

(** [disassemble_recursive elf] is an alternative frontend: recursive
    descent from the entry point, following direct branches and calls and
    stopping at indirect control flow ({!index_of_sites}). It discovers
    only a {e subset} of the instructions (indirect targets stay
    invisible) — which is fine for E9Patch: its patching is local, so
    partial disassembly information yields partial instrumentation,
    never incorrectness (§2.2). *)
val disassemble_recursive : Elf_file.t -> index
