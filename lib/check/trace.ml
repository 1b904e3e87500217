module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Insn = E9_x86.Insn

type stats = {
  events : int;
  boundary_retires : int;
  stores : int;
  insns_original : int;
  insns_rewritten : int;
  block_hits : int;
  block_misses : int;
  block_invalidations : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d trace events (%d boundary retires, %d stores); %d vs %d raw \
     instructions"
    s.events s.boundary_retires s.stores s.insns_original s.insns_rewritten

(* FNV-style rolling hash over the native-int event fields: each field
   [v] is mixed in as [h <- (h * prime + v) land max_int], Horner's rule
   modulo 2^62. A run of such steps is a polynomial in [prime], so it is
   computed below as a sum of independent products with the powers
   precomputed: the same value, without a chain of dependent multiplies
   at every event. *)
let prime = 0x100000001b3
let p1 = prime
let p2 = p1 * prime
let p3 = p2 * prime
let p4 = p3 * prime
let p5 = p4 * prime
let p6 = p5 * prime
let p7 = p6 * prime
let p8 = p7 * prime
let p9 = p8 * prime
let p10 = p9 * prime
let p11 = p10 * prime
let p12 = p11 * prime
let p13 = p12 * prime
let p14 = p13 * prime
let p15 = p14 * prime

(* The 16 general-purpose registers mixed in order from 0. *)
let regs_hash (r : int array) =
  ((r.(0) * p15) + (r.(1) * p14) + (r.(2) * p13) + (r.(3) * p12)
   + (r.(4) * p11) + (r.(5) * p10) + (r.(6) * p9) + (r.(7) * p8)
   + (r.(8) * p7) + (r.(9) * p6) + (r.(10) * p5) + (r.(11) * p4)
   + (r.(12) * p3) + (r.(13) * p2) + (r.(14) * p1) + r.(15))
  land max_int

(* When the rolling hashes differ, both programs are run again and their
   first [record_cap] events are kept verbatim so the divergence can be
   located; beyond that only the hash discriminates. *)
let record_cap = 1 lsl 17

type run_trace = {
  result : Cpu.result;
  hash : int;
  count : int;
  retires : int;
  store_count : int;
  recorded : (int * int * int * int) array;  (* empty unless recording *)
}

let kind_retire = 1
let kind_store = 2

let rec in_ranges addr = function
  | [] -> false
  | (lo, hi) :: rest -> (addr >= lo && addr < hi) || in_ranges addr rest

(* What both runs are filtered by. [boundary] holds one bit per text byte
   from [base]: the original instruction boundaries outside
   [instr_ranges], so lowering an instruction asks one bounds check and one
   bit test (and a retire at a non-boundary asks nothing).
   [start] is the original program's entry: events before the first
   retire at that address belong to the injected loader stub (stub mode),
   which is part of the loading process, not of the program's
   architectural trace. [instr_ranges] are instrumentation-private
   address ranges (tool-injected data/code segments): retires inside them
   and stores targeting them are instrumentation bookkeeping, exempt from
   the architectural comparison. The filter applies identically to both
   runs, and the original program neither executes nor writes those
   ranges, so the comparison stays one-to-one for everything
   program-visible. *)
type filter = {
  boundary : Bytes.t;
  base : int;
  size : int;
  instr_ranges : (int * int) list;
  start : int;
}

let filter ~holes ~instr_ranges original =
  (* [holes]: the data extents the rewrite excluded. The boundary set
     is only a filter applied identically to both runs, so phantom entries
     from a desynchronized sweep are harmless (data bytes never retire)
     — but the hole-aware sweep also recovers the real boundaries {e
     after} each hole that a desynchronized sweep would miss, keeping
     the comparison dense there. *)
  let init (text : Frontend.text) =
    { boundary = Bytes.make ((text.Frontend.size + 7) lsr 3) '\000';
      base = text.Frontend.base;
      size = text.Frontend.size;
      instr_ranges;
      start = original.Elf_file.entry }
  in
  let mark f (s : Frontend.site) =
    if not (in_ranges s.Frontend.addr instr_ranges) then begin
      let i = s.Frontend.addr - f.base in
      Bytes.set_uint8 f.boundary (i lsr 3)
        (Bytes.get_uint8 f.boundary (i lsr 3) lor (1 lsl (i land 7)))
    end;
    f
  in
  snd (Frontend.fold ~holes original ~init mark)

(* One run of [elf] under [f], hashing every event; with [record] the
   first [record_cap] events are also kept. *)
let traced_run ?config ~record f elf =
  let h = ref 0 in
  let count = ref 0 in
  let retires = ref 0 in
  let store_count = ref 0 in
  let recorded = ref [] in
  let nrec = ref 0 in
  (* The four fields mixed into [h] in order, as one sum. *)
  let emit k a b c =
    h := ((!h * p4) + (k * p3) + (a * p2) + (b * p1) + c) land max_int;
    incr count;
    if record && !nrec < record_cap then begin
      recorded := (k, a, b, c) :: !recorded;
      incr nrec
    end
  in
  let boundary addr =
    let i = addr - f.base in
    i >= 0 && i < f.size
    && Bytes.get_uint8 f.boundary (i lsr 3) land (1 lsl (i land 7)) <> 0
  in
  (* Asked once per instruction, when the emulator lowers it. Retires are
     watched at the boundaries and at [start], whose first retire opens
     the gate. Stores retired by call-class instructions are dropped: a
     displaced call pushes the trampoline continuation, not the original
     return address. Both bits are per instruction, so they apply
     symmetrically in both runs. *)
  let watch ~addr ~insn =
    { Cpu.retire = addr = f.start || boundary addr;
      stores =
        (match insn with Insn.Call _ | Insn.Call_ind _ -> false | _ -> true) }
  in
  let start_is_boundary = boundary f.start in
  let started = ref false in
  let on_retire ~addr ~regs =
    if not !started then started := addr = f.start;
    if !started && (addr <> f.start || start_is_boundary) then begin
      emit kind_retire addr (regs_hash regs) 0;
      incr retires
    end
  in
  let on_store ~addr ~size ~value =
    if !started && not (in_ranges addr f.instr_ranges) then begin
      emit kind_store addr size value;
      incr store_count
    end
  in
  let result =
    Machine.run ?config ~tracer:{ Cpu.watch; on_retire; on_store } elf
  in
  { result;
    hash = !h;
    count = !count;
    retires = !retires;
    store_count = !store_count;
    recorded = Array.of_list (List.rev !recorded) }

let outcome_str = function
  | Cpu.Exited n -> Printf.sprintf "exited %d" n
  | Cpu.Fault (a, m) -> Printf.sprintf "fault at 0x%x: %s" a m
  | Cpu.Violation p -> Printf.sprintf "violation at 0x%x" p
  | Cpu.Out_of_fuel -> "out of fuel"

let event_str (k, a, b, c) =
  if k = kind_retire then Printf.sprintf "retire 0x%x (regs %x)" a b
  else Printf.sprintf "store [0x%x]<-%d (%d bytes)" a c b

(* The first recorded event where the two runs differ, the run whose
   recording ends first naming "end of trace" on its own side. *)
let first_divergence ta tb =
  let la = Array.length ta.recorded and lb = Array.length tb.recorded in
  let rec go i =
    if i >= min la lb then
      if la > lb then
        Some
          (Printf.sprintf "event %d: %s vs end of trace" i
             (event_str ta.recorded.(i)))
      else if lb > la then
        Some
          (Printf.sprintf "event %d: end of trace vs %s" i
             (event_str tb.recorded.(i)))
      else None
    else if ta.recorded.(i) <> tb.recorded.(i) then
      Some
        (Printf.sprintf "event %d: %s vs %s" i
           (event_str ta.recorded.(i))
           (event_str tb.recorded.(i)))
    else go (i + 1)
  in
  go 0

let compare_runs ?config ?(holes = []) ?(instr_ranges = []) ~original
    rewritten =
  let f = filter ~holes ~instr_ranges original in
  let ta = traced_run ?config ~record:false f original in
  let tb = traced_run ?config ~record:false f rewritten in
  if ta.result.Cpu.outcome <> tb.result.Cpu.outcome then
    Error
      (Printf.sprintf "outcome diverged: %s vs %s"
         (outcome_str ta.result.Cpu.outcome)
         (outcome_str tb.result.Cpu.outcome))
  else if not (String.equal ta.result.Cpu.output tb.result.Cpu.output) then
    Error
      (Printf.sprintf "output diverged (%d vs %d bytes)"
         (String.length ta.result.Cpu.output)
         (String.length tb.result.Cpu.output))
  else if ta.count <> tb.count || ta.hash <> tb.hash then
    (* The emulator is deterministic, so running both programs again under
       the same configuration and filter reproduces these event streams,
       this time recorded. *)
    let ra = traced_run ?config ~record:true f original in
    let rb = traced_run ?config ~record:true f rewritten in
    Error
      (match first_divergence ra rb with
      | Some msg -> "trace diverged: " ^ msg
      | None ->
          Printf.sprintf
            "trace diverged beyond the recorded window (%d vs %d events, \
             hash %x vs %x)"
            ta.count tb.count ta.hash tb.hash)
  else
    Ok
      { events = ta.count;
        boundary_retires = ta.retires;
        stores = ta.store_count;
        insns_original = ta.result.Cpu.insns;
        insns_rewritten = tb.result.Cpu.insns;
        block_hits = ta.result.Cpu.block_hits + tb.result.Cpu.block_hits;
        block_misses = ta.result.Cpu.block_misses + tb.result.Cpu.block_misses;
        block_invalidations =
          ta.result.Cpu.block_invalidations + tb.result.Cpu.block_invalidations
      }

let run_digest ?config ?(holes = []) ?(instr_ranges = []) ~original elf =
  let t =
    traced_run ?config ~record:false (filter ~holes ~instr_ranges original) elf
  in
  (t.result, t.count, t.hash)
