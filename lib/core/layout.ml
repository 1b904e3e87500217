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

(* Why the most recent failed query failed — the tactic layer turns this
   into distinct reject reasons instead of blaming every failure on
   allocator contention:
   - [Dead_window]: the create-time occupancy (guards + segments) alone
     already blocks every position, so no allocation could ever serve
     the window.
   - [Conflict]: a genuine dynamic collision with earlier trampolines. *)
type denial = No_denial | Dead_window | Conflict

type t = {
  base : Iset.t;  (* create-time occupancy, never mutated afterwards *)
  occupied : Iset.t;
  trampolines : Iset.t;  (* subset of [occupied]: what we allocated *)
  cursors : int array;
  mutable cursor_hits : int;
  mutable cursor_misses : int;
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
    cursors = Array.make cursor_classes min_int;
    cursor_hits = 0;
    cursor_misses = 0;
    last_denial = No_denial }

let cursor_hits t = t.cursor_hits
let cursor_misses t = t.cursor_misses
let last_denial t = t.last_denial

(* Failure classification (see {!denial}) runs only on the failure
   path: one extra O(log n) probe against the base occupancy. *)
let find_free t ~size ~lo ~hi =
  match Iset.find_free t.occupied ~size ~lo ~hi with
  | Some _ as r -> r
  | None ->
      t.last_denial <-
        (if Iset.find_free t.base ~size ~lo ~hi = None then Dead_window
         else Conflict);
      None

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
  Iset.is_free t.occupied ~lo:addr ~hi:(addr + size)
  || begin
       t.last_denial <-
         (if Iset.is_free t.base ~lo:addr ~hi:(addr + size) then Conflict
          else Dead_window);
       false
     end

let probe t ~size ~lo ~hi = find_free t ~size ~lo ~hi

let probe_strided t ~size ~lo ~hi ~stride =
  match Iset.find_free_strided t.occupied ~size ~lo ~hi ~stride with
  | Some _ as r -> r
  | None ->
      t.last_denial <-
        (if Iset.find_free_strided t.base ~size ~lo ~hi ~stride = None then
           Dead_window
         else Conflict);
      None

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
