module Iset = E9_bits.Iset

(* Chunk arenas (DESIGN.md §10/§14): when the rewriter splits the text
   into content-defined chunks searched in parallel, each chunk's arena
   may only place trampolines inside the address stripes it owns, so
   concurrent searches can never hand two chunks overlapping extents —
   without any locking and without materializing the foreign stripes as
   occupied intervals. The chunk covering text offsets [r_lo, r_hi) of a
   [total]-byte text owns exactly the stripes whose scrambled image lands
   inside its own range. Ownership is a function of the chunk's {e own}
   coordinates (and the text size), never of the chunk count or ordinal,
   so a revision that splits or merges chunks elsewhere leaves this
   chunk's stripe set — and therefore its cached trampoline placements —
   intact. Chunks partition the text, so the scheme partitions the
   stripes: disjointness holds without any arena seeing the others. *)
type stripe = { r_lo : int; r_hi : int; total : int }

(* One page per stripe: any pun window of a page or more (two or fewer
   fixed displacement bytes) contains stripes of every owner, so the
   narrow-window tactics keep working inside chunk arenas instead of
   escalating; and a stripe never splits a loader page between chunks. *)
let stripe_bits = 12
let stripe_size = 1 lsl stripe_bits

(* Stripe [i] maps to a pseudorandom text offset; the chunk whose range
   contains that offset owns the stripe. The Knuth-style multiplicative
   scramble (the constant fits in 62-bit ints) spreads each chunk's
   stripes uniformly over the whole trampoline address space — every
   chunk needs reachable stripes in every window class. *)
let range_image ~total i = ((i * 0x2545F4914F6CDD1D) land max_int) mod total

let owns { r_lo; r_hi; total } i =
  let o = range_image ~total i in
  o >= r_lo && o < r_hi

(* Next-fit cursors: one remembered resume point per window-span class
   (quarter-log2 of [hi - lo]: each class covers a 4-octave span band, so
   windows of similar-but-not-identical width share a resume point).
   Windows of similar span are issued by the same tactic shapes and drift
   slowly under S1, so resuming the first-fit scan where the last
   same-class allocation ended skips the packed prefix that produced the
   alloc_conflict rescans. Falling back to a full scan on a cursor miss
   preserves first-fit's success set exactly — the cursor only relocates
   placements, never turns a success into a failure. *)
let cursor_classes = 64

(* Why the most recent failed query failed — the tactic layer turns this
   into distinct reject reasons (and a deferral decision) instead of
   blaming every failure on allocator contention:
   - [Dead_window]: the create-time occupancy (guards + segments) alone
     already blocks every position, so NO allocator, whole-text or
     chunk, could ever serve the window. Identical for every chunk and
     jobs value, since the base set is shared.
   - [Foreign_stripe]: the merged occupancy has room but the extent falls
     in stripes this arena does not own — retrying against the absorbed
     layout after the join can succeed.
   - [Conflict]: a genuine dynamic collision with earlier trampolines. *)
type denial = No_denial | Dead_window | Foreign_stripe | Conflict

type t = {
  base : Iset.t;
      (* create-time occupancy, never mutated afterwards; shared (not
         copied) across every chunk arena *)
  occupied : Iset.t;
  trampolines : Iset.t;  (* subset of [occupied]: what we allocated *)
  stripe : stripe option;
  cursors : int array;
  mutable cursor_hits : int;
  mutable cursor_misses : int;
  mutable resume_stripe : int;
      (* start address of the owned stripe that served the last striped
         search ([min_int] = none yet): striped searches resume here and
         fall back to the window start, like the span-class cursors *)
  mutable stripe_rotations : int;
  mutable last_denial : denial;
}

(* Keep clear of the emulator's fixed homes so patched binaries cannot
   collide with the runtime stack or heap (see E9_emu.Machine). *)
let low_guard = 0x10000
let canonical_limit = 1 lsl 47
let heap_home = 0x6000_0000_0000
let heap_span = 1 lsl 40
let stack_home = 0x7fff_f000_0000
let stack_span = 1 lsl 28

let create ?(reserve_below_base = false) ?(block_size = 4096) (elf : Elf_file.t) =
  let occupied = Iset.create () in
  let floor_b x = x / block_size * block_size in
  let ceil_b x = (x + block_size - 1) / block_size * block_size in
  (* Negative displacements below the image and the NULL guard. *)
  Iset.add occupied ~lo:(-0x1_0000_0000_0000) ~hi:low_guard;
  Iset.add occupied ~lo:canonical_limit ~hi:(canonical_limit * 2);
  Iset.add occupied ~lo:heap_home ~hi:(heap_home + heap_span);
  Iset.add occupied ~lo:stack_home ~hi:(stack_home + stack_span);
  let min_base =
    List.fold_left
      (fun acc (s : Elf_file.segment) ->
        match s.ptype with Load -> min acc s.vaddr | Note | Other _ -> acc)
      max_int elf.segments
  in
  if reserve_below_base && min_base < max_int then
    Iset.add occupied ~lo:(-0x1_0000_0000_0000) ~hi:(floor_b min_base);
  List.iter
    (fun (s : Elf_file.segment) ->
      match s.ptype with
      | Load ->
          Iset.add occupied ~lo:(floor_b s.vaddr)
            ~hi:(ceil_b (s.vaddr + s.memsz))
      | Note | Other _ -> ())
    elf.segments;
  { base = Iset.copy occupied;
    occupied;
    trampolines = Iset.create ();
    stripe = None;
    cursors = Array.make cursor_classes min_int;
    cursor_hits = 0;
    cursor_misses = 0;
    resume_stripe = min_int;
    stripe_rotations = 0;
    last_denial = No_denial }

let shard_range t ~lo ~hi ~total =
  if lo < 0 || hi <= lo || hi > total || total <= 0 then
    invalid_arg "Layout.shard_range";
  (* Both snapshots are O(1): the interval tree is persistent, so the
     arena holds the parent's occupancy as an immutable shared prefix and
     its own allocations as a private delta of tree paths. *)
  { base = t.base;
    occupied = Iset.copy t.occupied;
    trampolines = Iset.create ();
    stripe =
      (if hi - lo >= total then None else Some { r_lo = lo; r_hi = hi; total });
    cursors = Array.make cursor_classes min_int;
    cursor_hits = 0;
    cursor_misses = 0;
    resume_stripe = min_int;
    stripe_rotations = 0;
    last_denial = No_denial }

let absorb ~dst src =
  Iset.iter src.trampolines (fun ~lo ~hi ->
      Iset.add dst.occupied ~lo ~hi;
      Iset.add dst.trampolines ~lo ~hi);
  dst.cursor_hits <- dst.cursor_hits + src.cursor_hits;
  dst.cursor_misses <- dst.cursor_misses + src.cursor_misses;
  dst.stripe_rotations <- dst.stripe_rotations + src.stripe_rotations

let cursor_hits t = t.cursor_hits
let cursor_misses t = t.cursor_misses
let stripe_rotations t = t.stripe_rotations
let last_denial t = t.last_denial

(* ------------------------------------------------------------------ *)
(* Stripe-constrained searches                                         *)
(* ------------------------------------------------------------------ *)

(* Start address of the lowest owned stripe after stripe [i]. The
   expected gap is [total / (r_hi - r_lo)] stripes; a fixed scan cap
   (16 GiB of stripe space — beyond any ±2 GiB window) turns the
   pathological tail into a deterministic "exhausted" answer instead of
   an unbounded walk. *)
let next_own_stripe st i =
  let cap = 1 lsl 22 in
  let rec go j n =
    if n > cap then max_int lsr 1
    else if owns st j then j lsl stripe_bits
    else go (j + 1) (n + 1)
  in
  go (i + 1) 0

let range_owned st ~addr ~size =
  let last = (addr + size - 1) asr stripe_bits in
  let rec go i = i > last || (owns st i && go (i + 1)) in
  go (addr asr stripe_bits)

(* Repeat [find ~lo] until it yields a start whose whole extent lies in
   owned stripes. [find ~lo] must return the lowest admissible start
   >= lo, so jumping [lo] to the next owned stripe start skips foreign
   and exhausted stripes wholesale. [lo] is advanced to an owned stripe
   {e before} each interval search: a window that contains no owned
   stripe at all — the common case for narrow pun windows under many
   chunks — costs only the arithmetic, never a map lookup. *)
let find_owned st ~size ~hi find ~lo =
  if size > stripe_size then None
  else begin
    let rec go lo =
      let lo =
        if owns st (lo asr stripe_bits) then lo
        else next_own_stripe st (lo asr stripe_bits)
      in
      if lo > hi then None
      else
        match find ~lo with
        | None -> None
        | Some a ->
            if range_owned st ~addr:a ~size then Some a
            else go (next_own_stripe st (a asr stripe_bits))
    in
    go lo
  end

(* Failure classification (see {!denial}). Runs only on the failure
   path: two extra O(log n) probes against the base and the unstriped
   occupancy, far cheaper than the rescans the old misclassification
   provoked downstream. *)
let note_denial t d = t.last_denial <- d

(* Conflict-aware rotation: a window the arena could not serve because
   its free space sat in foreign stripes means this arena's low owned
   stripes are saturated or out of reach — advance the resume point one
   owned stripe so subsequent searches spread instead of re-plowing the
   same prefix. Pure per-arena state: stripe *ownership* never changes
   (disjointness requires every arena to agree on it). *)
let rotate_resume t st =
  t.stripe_rotations <- t.stripe_rotations + 1;
  let cur = if t.resume_stripe = min_int then low_guard else t.resume_stripe in
  t.resume_stripe <- next_own_stripe st (cur asr stripe_bits)

(* Striped window search: resume from the stripe that served the last
   allocation when it lies inside the window, falling back to the full
   window on a miss — the success set stays exactly first-fit's, only
   placements move. *)
let find_striped t ~lo ~hi search =
  let r =
    let rs = t.resume_stripe in
    if rs > lo && rs <= hi then
      match search rs with Some _ as x -> x | None -> search lo
    else search lo
  in
  (match r with
  | Some a -> t.resume_stripe <- (a asr stripe_bits) lsl stripe_bits
  | None -> ());
  r


let find_free t ~size ~lo ~hi =
  match t.stripe with
  | None -> (
      match Iset.find_free t.occupied ~size ~lo ~hi with
      | Some _ as r -> r
      | None ->
          note_denial t
            (if Iset.find_free t.base ~size ~lo ~hi = None then Dead_window
             else Conflict);
          None)
  | Some st -> (
      let find ~lo = Iset.find_free t.occupied ~size ~lo ~hi in
      let search l = find_owned st ~size ~hi find ~lo:l in
      match find_striped t ~lo ~hi search with
      | Some _ as r -> r
      | None ->
          (if Iset.find_free t.base ~size ~lo ~hi = None then
             note_denial t Dead_window
           else if Iset.find_free t.occupied ~size ~lo ~hi <> None then begin
             note_denial t Foreign_stripe;
             rotate_resume t st
           end
           else note_denial t Conflict);
          None)


let span_class ~lo ~hi =
  let rec go n c =
    if n <= 1 || c >= cursor_classes - 1 then c else go (n lsr 2) (c + 1)
  in
  go (max (hi - lo) 1) 0

let alloc t ~size ~lo ~hi =
  let c = span_class ~lo ~hi in
  let hint = t.cursors.(c) in
  let found =
    if hint > lo && hint <= hi then
      match find_free t ~size ~lo:hint ~hi with
      | Some _ as r ->
          t.cursor_hits <- t.cursor_hits + 1;
          r
      | None ->
          t.cursor_misses <- t.cursor_misses + 1;
          find_free t ~size ~lo ~hi
    else find_free t ~size ~lo ~hi
  in
  match found with
  | Some addr ->
      Iset.add t.occupied ~lo:addr ~hi:(addr + size);
      Iset.add t.trampolines ~lo:addr ~hi:(addr + size);
      t.cursors.(c) <- addr + size;
      Some addr
  | None -> None

let is_free t ~addr ~size =
  let free = Iset.is_free t.occupied ~lo:addr ~hi:(addr + size) in
  let owned =
    match t.stripe with None -> true | Some st -> range_owned st ~addr ~size
  in
  if free && owned then true
  else begin
    note_denial t
      (if not (Iset.is_free t.base ~lo:addr ~hi:(addr + size)) then Dead_window
       else if not owned then Foreign_stripe
       else Conflict);
    false
  end

let probe t ~size ~lo ~hi = find_free t ~size ~lo ~hi

let probe_strided t ~size ~lo ~hi ~stride =
  match t.stripe with
  | None -> (
      match Iset.find_free_strided t.occupied ~size ~lo ~hi ~stride with
      | Some _ as r -> r
      | None ->
          note_denial t
            (if Iset.find_free_strided t.base ~size ~lo ~hi ~stride = None then
               Dead_window
             else Conflict);
          None)
  | Some st -> (
      (* Keep candidates ≡ the caller's [lo] (mod stride) while restarting
         the scan at owned-stripe starts. *)
      let base = lo in
      let find ~lo =
        let lo =
          if lo <= base then base
          else base + ((lo - base + stride - 1) / stride * stride)
        in
        Iset.find_free_strided t.occupied ~size ~lo ~hi ~stride
      in
      let search l = find_owned st ~size ~hi find ~lo:l in
      match find_striped t ~lo ~hi search with
      | Some _ as r -> r
      | None ->
          (if Iset.find_free_strided t.base ~size ~lo ~hi ~stride = None then
             note_denial t Dead_window
           else if
             Iset.find_free_strided t.occupied ~size ~lo ~hi ~stride <> None
           then begin
             note_denial t Foreign_stripe;
             rotate_resume t st
           end
           else note_denial t Conflict);
          None)

let release t ~addr ~size =
  Iset.remove t.occupied ~lo:addr ~hi:(addr + size);
  Iset.remove t.trampolines ~lo:addr ~hi:(addr + size)

let alloc_at t ~addr ~size =
  if is_free t ~addr ~size then begin
    Iset.add t.occupied ~lo:addr ~hi:(addr + size);
    Iset.add t.trampolines ~lo:addr ~hi:(addr + size);
    true
  end
  else false

let reserve t ~addr ~size = Iset.add t.occupied ~lo:addr ~hi:(addr + size)

let trampoline_extents t = Iset.intervals t.trampolines
let trampoline_bytes t = Iset.occupied t.trampolines

type occupancy = {
  occupied_intervals : int;
  trampoline_extents : int;
  trampoline_bytes : int;
}

let occupancy t =
  {
    occupied_intervals = Iset.count t.occupied;
    trampoline_extents = Iset.count t.trampolines;
    trampoline_bytes = Iset.occupied t.trampolines;
  }
