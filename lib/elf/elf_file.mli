(** ELF64 object model: parse, edit in place, append, and re-emit.

    The model covers what static rewriting needs — the header, program
    headers (segments) and section headers — and deliberately nothing else
    (no symbols, no relocations: E9Patch works on stripped binaries).

    Invariants match the paper's §5.1 discipline: existing bytes are only
    ever patched {e in place}; new data is {e appended} to the end of the
    file, so no existing offset is ever recomputed. *)

type etype = Exec | Dyn

(** Segment permission bits. *)
type prot = { r : bool; w : bool; x : bool }

val prot_rx : prot
val prot_rw : prot
val prot_r : prot

type ptype = Load | Note | Other of int

type segment = {
  ptype : ptype;
  prot : prot;
  vaddr : int;
  offset : int;  (** file offset *)
  filesz : int;
  memsz : int;  (** [memsz > filesz] ⇒ zero-filled tail (.bss) *)
  align : int;
}

type section = {
  name : string;
  sh_type : int;
  sh_flags : int;
  addr : int;
  offset : int;
  size : int;
}

type t = {
  mutable etype : etype;
  mutable entry : int;
  mutable segments : segment list;
  mutable sections : section list;
  data : E9_bits.Buf.t;  (** the full file image *)
}

(** Magic section names used by the rewriter and understood by the
    emulator's loader. *)
val mmap_section_name : string
(** Mapping-table section: a sequence of 32-byte records
    [(vaddr, file_offset, length, prot)] applied by the loader after the
    PT_LOAD segments; implements physical page grouping's one-to-many
    mappings. *)

val trap_section_name : string
(** B0 trap table: 16-byte records [(patch_addr, trampoline_addr)] consulted
    by the SIGTRAP handler model. *)

(** [create ~etype ~entry] is an empty file image (headers are materialized
    by {!to_bytes}). *)
val create : etype:etype -> entry:int -> t

(** [add_segment t seg ~content] appends [content] to the image at the next
    aligned offset, records the segment, and returns the file offset chosen.
    [seg.offset] and [seg.filesz] are overridden accordingly. *)
val add_segment : t -> segment -> content:bytes -> int

(** [add_section t ~name ~addr ~sh_type ~sh_flags ~content] appends content
    and records a section over it; returns its file offset. *)
val add_section :
  t -> name:string -> addr:int -> sh_type:int -> sh_flags:int ->
  content:bytes -> int

(** [find_section t name] is the first section named [name], if any. *)
val find_section : t -> string -> section option

(** [copy t] is an independent clone of [t]: edits to either file image do
    not affect the other. One content blit — much cheaper than the
    [of_bytes (to_bytes t)] round trip (no header re-emission or
    re-parse). *)
val copy : t -> t

(** [serialized_size t] is [Bytes.length (to_bytes t)] without
    materializing the serialization. *)
val serialized_size : t -> int

(** [section_bytes t s] copies a section's content out of the image. *)
val section_bytes : t -> section -> bytes

(** [segment_at t vaddr] is the segment whose memory image contains
    [vaddr], if any. *)
val segment_at : t -> int -> segment option

(** [phdr_overlap t ~phnum] is [Some off] when a table of [phnum]
    program headers, written right after the ELF header, would reach the
    content at file offset [off] (the first section's bytes, or a
    segment's that does not map the header block itself); [None] when it
    fits. Files built by {!create} reserve 4 KiB for the headers; a
    parsed file may have content right after its table. *)
val phdr_overlap : t -> phnum:int -> int option

(** [to_bytes t] serializes: ELF header, program headers, section headers
    (with a generated [.shstrtab]) and all content. The layout places
    headers in a leading header block and never moves content: raises
    [Failure] instead of writing program headers over content (see
    {!phdr_overlap}). *)
val to_bytes : t -> bytes

(** [to_bytes_stripped t] serializes like {!to_bytes} but without a
    section header table ([e_shoff]/[e_shnum]/[e_shstrndx] zeroed, the
    generated [.shstrtab] cut off): exactly what a fully stripped
    toolchain leaves — header, program headers, content. Parsing it back
    relies on the stripped-file path of {!of_bytes} (whole image kept as
    content) and downstream program-header fallbacks. *)
val to_bytes_stripped : t -> bytes

(** Raised by {!of_bytes} (and the metadata decoders in {!Tablemeta} /
    {!Loadmap}) on structurally invalid input: truncated or zero-sized
    header tables, overlapping PT_LOAD segments, out-of-image ranges. A
    typed error, so callers can distinguish hostile input from parser
    bugs ([Invalid_argument] escaping the byte accessors). *)
exception Malformed of string

(** [of_bytes b] parses a serialized image. The content ends where the
    section header table starts, or, when the section-name string table
    lies past every segment's and section's bytes with only alignment
    padding after it (the layout {!to_bytes} emits), where that table
    starts: both are regenerated on serialization, so [of_bytes (to_bytes
    t)] keeps [t]'s content length and round trips reach a fixed point.
    Raises {!Malformed} on anything that is not a structurally valid
    little-endian ELF64 file. *)
val of_bytes : bytes -> t

(** A file write failed part-way; the temp file has been removed and no
    (new) file exists at the destination path. *)
exception Io_error of string

(** [write_file t path] serializes atomically: the image is written to a
    temp file and renamed into place, so [path] either holds the complete
    serialized binary or is untouched — {!Io_error} reports the latter.
    [fault] (fault-injection campaigns) simulates a short write when it
    returns [true]. [read_file] is the file-system convenience inverse. *)
val write_file : ?fault:(unit -> bool) -> t -> string -> unit

val read_file : string -> t

(** [pp ppf t] prints a human-readable summary (like a tiny readelf). *)
val pp : Format.formatter -> t -> unit
