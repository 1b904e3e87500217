module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Insn = E9_x86.Insn

type stats = {
  events : int;
  boundary_retires : int;
  stores : int;
  insns_original : int;
  insns_rewritten : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d trace events (%d boundary retires, %d stores); %d vs %d raw \
     instructions"
    s.events s.boundary_retires s.stores s.insns_original s.insns_rewritten

(* FNV-style rolling mix over the native-int event fields. *)
let mix h v = ((h * 0x100000001b3) + v) land max_int

(* First [record_cap] events are kept verbatim so a divergence can be
   located; beyond that only the rolling hash discriminates. *)
let record_cap = 1 lsl 17

type run_trace = {
  result : Cpu.result;
  hash : int;
  count : int;
  retires : int;
  store_count : int;
  recorded : (int * int * int * int) array;
}

let kind_retire = 1
let kind_store = 2

(* [start] is the original program's entry: events before the first retire
   at that address belong to the injected loader stub (stub mode), which is
   part of the loading process, not of the program's architectural trace.
   [in_instr] marks instrumentation-private address ranges (tool-injected
   data/code segments): retires inside them and stores targeting them are
   instrumentation bookkeeping, exempt from the architectural comparison.
   The filter applies identically to both runs, and the original program
   neither executes nor writes those ranges, so the comparison stays
   one-to-one for everything program-visible. *)
let traced_run ?config ~is_boundary ~in_instr ~start elf =
  let h = ref 0 in
  let count = ref 0 in
  let retires = ref 0 in
  let store_count = ref 0 in
  let recorded = ref [] in
  let nrec = ref 0 in
  let emit k a b c =
    h := mix (mix (mix (mix !h k) a) b) c;
    incr count;
    if !nrec < record_cap then begin
      recorded := (k, a, b, c) :: !recorded;
      incr nrec
    end
  in
  (* Stores retired by call-class instructions are dropped: a displaced
     call pushes the trampoline continuation, not the original return
     address. The flag is per-retire, so the drop applies symmetrically in
     both runs. *)
  let dropping = ref false in
  let started = ref false in
  let on_retire ~addr ~insn ~regs =
    if not !started then started := addr = start;
    if !started then begin
      (dropping :=
         match insn with Insn.Call _ | Insn.Call_ind _ -> true | _ -> false);
      if is_boundary addr && not (in_instr addr) then begin
        let rh = Array.fold_left mix 0 regs in
        emit kind_retire addr rh 0;
        incr retires
      end
    end
  in
  let on_store ~addr ~size ~value =
    if !started && (not !dropping) && not (in_instr addr) then begin
      emit kind_store addr size value;
      incr store_count
    end
  in
  let result = Machine.run ?config ~tracer:{ Cpu.on_retire; on_store } elf in
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

let first_divergence ta tb =
  let n = min (Array.length ta.recorded) (Array.length tb.recorded) in
  let rec go i =
    if i >= n then
      if Array.length ta.recorded <> Array.length tb.recorded then
        Some
          (i,
            Printf.sprintf "event %d: %s vs end of trace" i
              (event_str
                 (if Array.length ta.recorded > i then ta.recorded.(i)
                  else tb.recorded.(i))))
      else None
    else if ta.recorded.(i) <> tb.recorded.(i) then
      Some
        (i,
          Printf.sprintf "event %d: %s vs %s" i
            (event_str ta.recorded.(i))
            (event_str tb.recorded.(i)))
    else go (i + 1)
  in
  go 0

(* The original instruction boundaries, one bit per text byte: every
   retire asks, so the lookup is a bounds check and a bit test. *)
let boundary_bitmap (text : Frontend.text) sites =
  let bits = Bytes.make ((text.Frontend.size + 7) lsr 3) '\000' in
  List.iter
    (fun (s : Frontend.site) ->
      let i = s.Frontend.addr - text.Frontend.base in
      Bytes.set_uint8 bits (i lsr 3)
        (Bytes.get_uint8 bits (i lsr 3) lor (1 lsl (i land 7))))
    sites;
  fun addr ->
    let i = addr - text.Frontend.base in
    i >= 0 && i < text.Frontend.size
    && Bytes.get_uint8 bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let compare_runs ?config ?(holes = []) ?(instr_ranges = []) ~original
    rewritten =
  (* [holes]: the data extents the rewrite excluded. The boundary set
     is only a filter applied identically to both runs, so phantom entries
     from a desynchronized sweep are harmless (data bytes never retire)
     — but the hole-aware sweep also recovers the real boundaries {e
     after} each hole that a desynchronized sweep would miss, keeping
     the comparison dense there. *)
  let text, sites = Frontend.disassemble ~holes original in
  let is_boundary = boundary_bitmap text sites in
  let start = original.Elf_file.entry in
  let in_instr addr =
    List.exists (fun (lo, hi) -> addr >= lo && addr < hi) instr_ranges
  in
  let ta = traced_run ?config ~is_boundary ~in_instr ~start original in
  let tb = traced_run ?config ~is_boundary ~in_instr ~start rewritten in
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
    Error
      (match first_divergence ta tb with
      | Some (_, msg) -> "trace diverged: " ^ msg
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
        insns_rewritten = tb.result.Cpu.insns }
