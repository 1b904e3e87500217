(** The rewriter's view of the patched program's virtual address space:
    which addresses can host trampolines.

    Initially occupied (hence unavailable): the negative range and the
    first 64 KiB (where a punned displacement would underflow — the paper's
    "invalid negative address range"), every loaded segment of the binary,
    the region above the 47-bit canonical boundary, the emulator's heap and
    stack homes, and — for shared objects — the region below the load base,
    which the dynamic linker populates with other objects (paper §5.1).

    Every successful trampoline allocation reserves its extent, feeding
    back into later punning decisions exactly as in E9Patch. *)

type t

(** [create ?reserve_below_base ?block_size elf] builds the initial
    occupancy from the binary's segments. [reserve_below_base] models the
    shared-object case (default false). Segment reservations are rounded
    out to [block_size] bytes (default one page): the loader's trampoline
    mappings are block-granular, so a trampoline must never share a block
    with original content. Pass the page-grouping granularity in bytes. *)
val create : ?reserve_below_base:bool -> ?block_size:int -> Elf_file.t -> t

(** Why the most recent failed query ({!alloc}, {!probe},
    {!probe_strided}, {!is_free}, {!alloc_at}) failed. [Dead_window]: the
    create-time base occupancy (guards + segments) alone blocks every
    position, so retrying is pointless. [Conflict]: a genuine dynamic
    collision with previously allocated trampolines. Classification runs
    only on failure paths. *)
type denial = No_denial | Dead_window | Conflict

val last_denial : t -> denial

(** Next-fit cursor telemetry: allocations that resumed from the
    remembered per-window-class scan position ([cursor_hits]) vs. ones
    where the resumed scan failed and a full first-fit rescan ran
    ([cursor_misses]). *)
val cursor_hits : t -> int

val cursor_misses : t -> int

(** [alloc t ~size ~lo ~hi] reserves [size] bytes whose start lies in
    [lo, hi] (inclusive), preferring the lowest address; returns the start,
    or [None] if the window has no free gap. A per-window-class next-fit
    cursor resumes the scan where the previous same-class allocation
    ended, falling back to a full first-fit scan on a miss — so the set of
    windows that allocate successfully is exactly first-fit's. *)
val alloc : t -> size:int -> lo:int -> hi:int -> int option

(** [is_free t ~addr ~size] — true when [addr, addr+size) is entirely
    unoccupied (used by joint-pun candidate probing; does not reserve). *)
val is_free : t -> addr:int -> size:int -> bool

(** [probe t ~size ~lo ~hi] is like {!alloc} but reserves nothing — used to
    test joint-pun candidates cheaply. *)
val probe : t -> size:int -> lo:int -> hi:int -> int option

(** [probe_strided t ~size ~lo ~hi ~stride] finds a free range whose start
    is congruent to [lo] modulo [stride] — the query shape produced by
    joint puns, where pinned low displacement bytes impose a residue.
    Reserves nothing. *)
val probe_strided :
  t -> size:int -> lo:int -> hi:int -> stride:int -> int option

(** [alloc_at t ~addr ~size] claims the exact range as a trampoline if it
    is free; returns whether it succeeded. *)
val alloc_at : t -> addr:int -> size:int -> bool

(** [release t ~addr ~size] rolls back a reservation made by {!alloc} /
    {!alloc_at} (used when the second half of a joint commit fails). *)
val release : t -> addr:int -> size:int -> unit

(** [reserve t ~addr ~size] marks a range occupied unconditionally. *)
val reserve : t -> addr:int -> size:int -> unit

(** [trampoline_extents t] lists the ranges allocated via {!alloc} (and
    {!reserve} with [~track:true] semantics are excluded): the input to
    physical page grouping. *)
val trampoline_extents : t -> (int * int) list

(** [trampoline_bytes t] is the total size of allocated trampolines. *)
val trampoline_bytes : t -> int

(** Point-in-time allocator gauges for the observability layer:
    [occupied_intervals] counts disjoint occupied ranges (fragmentation),
    [trampoline_extents] the disjoint allocated trampoline ranges. *)
type occupancy = {
  occupied_intervals : int;
  trampoline_extents : int;
  trampoline_bytes : int;
}

val occupancy : t -> occupancy
