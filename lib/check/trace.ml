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

(* What both runs are filtered by. The boundaries are the starts
   [index] records outside [instr_ranges], so lowering an instruction
   asks one length byte (and a retire at a non-boundary asks nothing);
   the hole-aware sweep keeps them dense after each hole.
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
  index : Frontend.index;
  instr_ranges : (int * int) list;
  start : int;
}

let filter ?holes ?index ~instr_ranges original =
  { index = fst (Frontend.linear_sweep ?holes ?index original);
    instr_ranges;
    start = original.Elf_file.entry }

let is_boundary f addr =
  Frontend.length_at f.index addr > 0 && not (in_ranges addr f.instr_ranges)

let boundary ?holes ?index ?(instr_ranges = []) ~original =
  is_boundary (filter ?holes ?index ~instr_ranges original)

(* What one traced run accumulates: the rolling hash (reduced to 62
   bits when it is read: every step is a ring operation, so masking once
   at the end gives the value masking each step would), the retire and
   store counts, whether the gate at [start] has opened, and, when
   recording, the first [record_cap] events, newest first. *)
type acc = {
  mutable h : int;
  mutable retires : int;
  mutable stores : int;
  mutable started : bool;
  mutable kept : (int * int * int * int) list;
  mutable nkept : int;
}

(* An event's kind is its first field, mixed in times [p3]. *)
let retire_p3 = kind_retire * p3
let store_p3 = kind_store * p3

(* One run of [elf] under [f], hashing every event; with [record] the
   first [record_cap] events are also kept. Each event's four fields are
   mixed into the hash in order, as one sum. *)
let traced_run ?config ~record f elf =
  let a =
    { h = 0; retires = 0; stores = 0; started = false; kept = [];
      nkept = 0 }
  in
  let keep ev =
    if a.nkept < record_cap then begin
      a.kept <- ev :: a.kept;
      a.nkept <- a.nkept + 1
    end
  in
  let boundary = is_boundary f in
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
  (* The emulator hands each watched retire its register digest, the
     value [regs_hash] computes from [regs]. *)
  let on_retire ~addr ~regs:_ ~digest =
    if not a.started then a.started <- addr = f.start;
    if a.started && (addr <> f.start || start_is_boundary) then begin
      a.h <- (a.h * p4) + retire_p3 + (addr * p2) + (digest * p1);
      a.retires <- a.retires + 1;
      if record then keep (kind_retire, addr, digest, 0)
    end
  in
  let on_store ~addr ~size ~value =
    if a.started && not (in_ranges addr f.instr_ranges) then begin
      a.h <- (a.h * p4) + store_p3 + (addr * p2) + (size * p1) + value;
      a.stores <- a.stores + 1;
      if record then keep (kind_store, addr, size, value)
    end
  in
  let result =
    Machine.run ?config ~tracer:{ Cpu.watch; on_retire; on_store } elf
  in
  { result;
    hash = a.h land max_int;
    count = a.retires + a.stores;
    retires = a.retires;
    store_count = a.stores;
    recorded = Array.of_list (List.rev a.kept) }

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

let compare_runs ?config ?holes ?index ?(instr_ranges = []) ~original
    rewritten =
  let f = filter ?holes ?index ~instr_ranges original in
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

let run_digest ?config ?holes ?index ?(instr_ranges = []) ~original elf =
  let t =
    traced_run ?config ~record:false
      (filter ?holes ?index ~instr_ranges original)
      elf
  in
  (t.result, t.count, t.hash)
