module Iset = E9_bits.Iset

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

(* Why a query failed — the tactic layer turns this into distinct reject
   reasons instead of blaming every failure on allocator contention:
   - [Dead_window]: the create-time occupancy (guards + segments) alone
     already blocks every position, so no allocation could ever serve
     the window.
   - [Conflict]: a genuine dynamic collision with earlier trampolines. *)
type denial = Dead_window | Conflict

type t = {
  base : Iset.t;  (* create-time occupancy alone *)
  occupied : Iset.t;
  mutable trampoline_bytes : int;  (* bytes claimed *)
  cursors : int array;
  mutable cursor_hits : int;
  mutable cursor_misses : int;
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
  let base = Iset.create () and occupied = Iset.create () in
  (* Every create-time interval goes into both sets; only [occupied]
     grows afterwards. *)
  let add ~lo ~hi =
    Iset.add base ~lo ~hi;
    Iset.add occupied ~lo ~hi
  in
  let floor_b x = x / block_size * block_size in
  let ceil_b x = (x + block_size - 1) / block_size * block_size in
  (* Negative displacements below the image and the NULL guard, out to a
     whole block: a trampoline's block is mapped whole. *)
  add ~lo:(-0x1_0000_0000_0000) ~hi:(ceil_b low_guard);
  add ~lo:canonical_limit ~hi:(canonical_limit * 2);
  add ~lo:heap_home ~hi:(heap_home + heap_span);
  add ~lo:stack_home ~hi:(stack_home + stack_span);
  let min_base =
    List.fold_left
      (fun acc (s : Elf_file.segment) ->
        match s.ptype with Load -> min acc s.vaddr | Note | Other _ -> acc)
      max_int elf.segments
  in
  if reserve_below_base && min_base < max_int then
    add ~lo:(-0x1_0000_0000_0000) ~hi:(floor_b min_base);
  List.iter
    (fun (s : Elf_file.segment) ->
      match s.ptype with
      | Load -> add ~lo:(floor_b s.vaddr) ~hi:(ceil_b (s.vaddr + s.memsz))
      | Note | Other _ -> ())
    elf.segments;
  { base;
    occupied;
    trampoline_bytes = 0;
    cursors = Array.make cursor_classes min_int;
    cursor_hits = 0;
    cursor_misses = 0 }

let cursor_hits t = t.cursor_hits
let cursor_misses t = t.cursor_misses

(* Failure classification (see {!denial}) runs only on the failure
   path: one extra O(log n) query against the base occupancy. *)
let classify t ~size ~lo ~hi =
  if Iset.find_free t.base ~size ~lo ~hi ~stride:1 = None then Dead_window
  else Conflict

(* First fit in [lo, hi] as if [t_lo, t_hi) were occupied too. A fit
   that overlaps the taken range can only be followed by one past its
   end: every start between the two would overlap it as well. The empty
   range [min_int, min_int) overlaps nothing. *)
let find_beside set ~t_lo ~t_hi ~size ~lo ~hi =
  match Iset.find_free set ~size ~lo ~hi ~stride:1 with
  | Some a when a < t_hi && t_lo < a + size ->
      Iset.find_free set ~size ~lo:t_hi ~hi ~stride:1
  | found -> found

let span_class ~lo ~hi =
  let rec go n c =
    if n <= 1 || c >= cursor_classes - 1 then c else go (n lsr 2) (c + 1)
  in
  go (max (hi - lo) 1) 0

let claim t ~addr ~size =
  Iset.add t.occupied ~lo:addr ~hi:(addr + size);
  t.trampoline_bytes <- t.trampoline_bytes + size

let first_fit t ~t_lo ~t_hi ~size ~lo ~hi =
  match find_beside t.occupied ~t_lo ~t_hi ~size ~lo ~hi with
  | Some addr -> Ok addr
  | None -> Error (classify t ~size ~lo ~hi)

(* The next-fit search of [alloc] and [alloc_beside]; the cursor rule and
   its hit and miss counts do not depend on the taken range. *)
let next_fit t ~t_lo ~t_hi ~size ~lo ~hi =
  let c = span_class ~lo ~hi in
  let hint = t.cursors.(c) in
  let found =
    if hint > lo && hint <= hi then
      match find_beside t.occupied ~t_lo ~t_hi ~size ~lo:hint ~hi with
      | Some addr ->
          t.cursor_hits <- t.cursor_hits + 1;
          Ok addr
      | None ->
          t.cursor_misses <- t.cursor_misses + 1;
          first_fit t ~t_lo ~t_hi ~size ~lo ~hi
    else first_fit t ~t_lo ~t_hi ~size ~lo ~hi
  in
  (match found with
  | Ok addr ->
      claim t ~addr ~size;
      t.cursors.(c) <- addr + size
  | Error _ -> ());
  found

let alloc t ~size ~lo ~hi =
  next_fit t ~t_lo:min_int ~t_hi:min_int ~size ~lo ~hi

let alloc_beside t ~taken:(addr, tsize) ~size ~lo ~hi =
  let found = next_fit t ~t_lo:addr ~t_hi:(addr + tsize) ~size ~lo ~hi in
  if Result.is_ok found then claim t ~addr ~size:tsize;
  found

let probe t ~size ~lo ~hi =
  first_fit t ~t_lo:min_int ~t_hi:min_int ~size ~lo ~hi

let probe_beside t ~taken:(addr, tsize) ~size ~lo ~hi =
  find_beside t.occupied ~t_lo:addr ~t_hi:(addr + tsize) ~size ~lo ~hi

let probe_strided t ~size ~lo ~hi ~stride =
  Iset.find_free t.occupied ~size ~lo ~hi ~stride

let reserve t ~addr ~size = Iset.add t.occupied ~lo:addr ~hi:(addr + size)

let trampoline_bytes t = t.trampoline_bytes

type occupancy = { occupied_intervals : int; trampoline_extents : int }

(* Trampolines never overlap (and are never empty: a size-0 query finds
   no room), so their extents are the emitted ones sorted by address,
   with abutting neighbours merged into one interval. *)
let occupancy t ~trampolines =
  let extents =
    List.map (fun (addr, code) -> (addr, addr + Bytes.length code)) trampolines
    |> List.sort compare
  in
  let _, runs =
    List.fold_left
      (fun (prev_hi, n) (lo, hi) -> (hi, if lo = prev_hi then n else n + 1))
      (min_int, 0) extents
  in
  { occupied_intervals = Iset.count t.occupied; trampoline_extents = runs }
