(** A 64-bit virtual address space with 4 KiB pages.

    This is the emulator's memory: the loader maps ELF segment content and
    the rewriter's (possibly one-to-many) trampoline mappings into it, and
    the CPU reads/writes/fetches through it. Mapping semantics follow
    [mmap MAP_PRIVATE|MAP_FIXED]: content is copied at map time, later
    mappings silently replace earlier ones, and writes never propagate back
    to the source. Page protections are enforced: writing a read-only page
    or fetching from a non-executable page raises {!Fault}. *)

type t

(** Raised on access violations: address and a description. *)
exception Fault of int * string

val create : unit -> t

(** [map_bytes t ~vaddr ~prot content] copies [content] to [vaddr].
    [vaddr] need not be page-aligned; pages touched are created or
    re-protected as needed. *)
val map_bytes : t -> vaddr:int -> prot:Elf_file.prot -> bytes -> unit

(** [map_sub t ~vaddr ~prot src ~src_off ~len] maps a slice of [src]
    without an intermediate copy. *)
val map_sub :
  t -> vaddr:int -> prot:Elf_file.prot -> bytes -> src_off:int -> len:int ->
  unit

(** [map_zero t ~vaddr ~len ~prot] maps a zero-filled range. Ranges of 16+
    pages are materialized lazily on first touch. *)
val map_zero : t -> vaddr:int -> len:int -> prot:Elf_file.prot -> unit

(** Data accesses. Multi-byte accesses are little-endian and may cross page
    boundaries. Reads require [r], writes require [w]. Values are OCaml's
    63-bit ints: [read_u64] drops byte 7's top bit and [write_u64] stores
    it clear. An access inside one page is one word load or store; one
    that crosses a page goes byte by byte (reads from the highest byte,
    writes from the lowest), so a fault names the first byte that
    fails.

    Permission-checked pages are remembered in two direct-mapped TLBs of
    {!tlb_slots} entries, one for reads and one for writes, indexed by
    the low bits of the page number; every mapping operation
    ([map_bytes], [map_sub], [map_zero]) flushes both, so an access after
    one sees the new bytes or protection. *)
val read_u8 : t -> int -> int

val read_u32 : t -> int -> int
val read_u64 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int -> unit

(** [read_bytes t addr len] copies out a range (requires [r]). *)
val read_bytes : t -> int -> int -> bytes

(** [read_cstring t addr ~max] is the NUL-terminated string at [addr],
    cut at [max] bytes (requires [r]). It reads the bytes a byte loop
    would — up to the NUL, or [max + 1] bytes when there is none in the
    first [max] — one page lookup per page, so an unreadable page faults
    at the first byte of it the string reaches. *)
val read_cstring : t -> int -> max:int -> string

(** The number of entries in each TLB (a power of two): pages [pn] and
    [pn + tlb_slots] share a slot. *)
val tlb_slots : int

(** [fetch_window t addr] returns up to 16 bytes starting at [addr] for
    instruction decoding (requires [x] on the first page; a window is
    truncated at an unmapped or non-executable boundary). Raises {!Fault}
    if [addr] itself is not fetchable. *)
val fetch_window : t -> int -> bytes

(** [generation t] is the code-generation counter: it advances whenever the
    contents or protections of executable memory may have changed — a data
    write into an executable page, or a mapping operation ([map_bytes],
    [map_sub], [map_zero]) that creates, replaces or re-protects an
    executable page. Caches of decoded instructions are valid only while
    the generation they were filled under is unchanged; on a mismatch they
    must be flushed (see Cpu's superblock cache, DESIGN.md §7). *)
val generation : t -> int
