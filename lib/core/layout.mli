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

(** Why a query failed. [Dead_window]: the create-time base occupancy
    (guards + segments) alone blocks every position, so retrying is
    pointless. [Conflict]: a genuine dynamic collision with previously
    allocated trampolines or {!reserve}d ranges. Classification runs
    only on failure paths. *)
type denial = Dead_window | Conflict

(** Next-fit cursor telemetry: allocations that resumed from the
    remembered per-window-class scan position ([cursor_hits]) vs. ones
    where the resumed scan failed and a full first-fit rescan ran
    ([cursor_misses]). *)
val cursor_hits : t -> int

val cursor_misses : t -> int

(** {2 Queries}

    A tactic that needs two homes asks pure queries first and claims
    only once the whole commit is known to fit, so nothing is ever
    handed back: there is no release. The [_beside] queries answer as
    if a range [taken = (addr, size)] the caller is about to claim were
    already occupied. *)

(** [probe t ~size ~lo ~hi] is the lowest start in [lo, hi] (inclusive)
    with [size] free bytes, or why the window has none. Reserves
    nothing. *)
val probe : t -> size:int -> lo:int -> hi:int -> (int, denial) result

(** [probe_beside t ~taken ~size ~lo ~hi] is the start {!probe} would
    find as if [taken] were occupied: first fit, resumed past the taken
    range. When the first fit overlaps [taken], the answer is the first
    fit from [taken]'s end (every start in between would overlap it too).
    T3 asks it for J_victim's home beside J_patch's. Its one caller needs
    no reason for a miss, so none is classified: [None]. *)
val probe_beside :
  t -> taken:int * int -> size:int -> lo:int -> hi:int -> int option

(** [probe_strided t ~size ~lo ~hi ~stride] finds a free range whose start
    is congruent to [lo] modulo [stride] — the query shape of T3's
    J_patch, whose low displacement bytes J_victim pins to a residue.
    At [~stride:1] it is {!probe}'s search without a reason for a miss.
    Reserves nothing, and like {!probe_beside} classifies no miss. *)
val probe_strided :
  t -> size:int -> lo:int -> hi:int -> stride:int -> int option

(** {2 Claims} *)

(** [alloc t ~size ~lo ~hi] reserves [size] bytes whose start lies in
    [lo, hi] (inclusive), preferring the lowest address; returns the start,
    or why the window has no free gap. A per-window-class next-fit
    cursor resumes the scan where the previous same-class allocation
    ended, falling back to a full first-fit scan on a miss — so the set of
    windows that allocate successfully is exactly first-fit's. *)
val alloc : t -> size:int -> lo:int -> hi:int -> (int, denial) result

(** [alloc_beside t ~taken ~size ~lo ~hi] is {!alloc} as if [taken] were
    occupied (the search is {!probe_beside}'s, from the cursor, with
    {!alloc}'s cursor rule and hit and miss counts); on success it claims
    [taken] and the found range together, on failure neither. T2 claims
    its evictee home and its patch home with it. *)
val alloc_beside :
  t -> taken:int * int -> size:int -> lo:int -> hi:int -> (int, denial) result

(** [claim t ~addr ~size] claims a range as a trampoline without checking
    it: the caller's own query ({!probe}, {!probe_strided},
    {!probe_beside}) has found it free, and it overlaps nothing claimed
    since. *)
val claim : t -> addr:int -> size:int -> unit

(** [reserve t ~addr ~size] marks a range occupied unconditionally. *)
val reserve : t -> addr:int -> size:int -> unit

(** [trampoline_bytes t] is the total size of the trampolines claimed
    ({!alloc}, {!alloc_beside}, {!claim}): a counter, O(1), and the one
    count of trampoline bytes a rewrite reports. *)
val trampoline_bytes : t -> int

(** Point-in-time allocator gauges for the observability layer:
    [occupied_intervals] counts disjoint occupied ranges (fragmentation),
    [trampoline_extents] the disjoint allocated trampoline ranges. *)
type occupancy = { occupied_intervals : int; trampoline_extents : int }

(** [occupancy t ~trampolines] reads the gauges after a search.
    [trampolines] is the emitted [(address, code)] list
    ({!Tactics.trampolines}), in any order, whose extents are exactly the ranges
    claimed through [t]: [trampoline_extents] counts them once, sorted
    and with abutting extents merged, so the allocator keeps no second
    interval set of its own. *)
val occupancy : t -> trampolines:(int * bytes) list -> occupancy
