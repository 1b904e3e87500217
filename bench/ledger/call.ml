(* The program's public entry points, as the workloads call them: each
   call is a ledger span while tracing, and folds the layer counts its
   result carries into the probe's totals. Every call uses the program's
   default options. *)

module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Tactics = E9_core.Tactics
module Layout = E9_core.Layout
module Stats = E9_core.Stats
module Tool = E9_tool.Tool
module Static = E9_check.Static
module Trace = E9_check.Trace
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu

(* Inputs are a function of the run seed, the workload's own salt and the
   input's index, so two workloads never rewrite the same binary. Each is
   parsed from its file image, as the program's users hand it one. *)
let generate_file ~seed ~salt ~functions ~iterations =
  Codegen.generate
    { Codegen.default_profile with
      Codegen.name = Printf.sprintf "ledger-%d-%d" seed salt;
      seed = Int64.of_int ((seed * 104_729) + salt);
      functions;
      iterations }
  |> Elf_file.to_bytes

let generate ~seed ~salt ~functions ~iterations =
  Elf_file.of_bytes (generate_file ~seed ~salt ~functions ~iterations)

let empty _ = Trampoline.Empty

let record_rewrite (r : Rewriter.result) =
  Probe.add "rewriter.chunks" (float_of_int r.Rewriter.shards);
  Probe.add "rewriter.setup_s" r.Rewriter.setup_s;
  Probe.add "layout.occupied_intervals"
    (float_of_int r.Rewriter.occupancy.Layout.occupied_intervals);
  Probe.add "layout.trampoline_bytes" (float_of_int r.Rewriter.trampoline_bytes);
  Probe.add "pagegroup.mappings" (float_of_int r.Rewriter.mappings);
  Probe.add "pagegroup.physical_blocks" (float_of_int r.Rewriter.physical_blocks)

let rewrite elf ~select =
  let r =
    Probe.span "rewriter.run" (fun () ->
        Rewriter.run ~obs:(Probe.obs ()) elf ~select ~template:empty)
  in
  record_rewrite r;
  r

let tool_run elf rules =
  let res =
    Probe.span "tool.run" (fun () -> Tool.run ~obs:(Probe.obs ()) elf rules)
  in
  let r = res.Tool.rewrite in
  record_rewrite r;
  Probe.add "tool.sites" (float_of_int (Stats.succeeded r.Rewriter.stats));
  Probe.add "tool.trampoline_bytes" (float_of_int r.Rewriter.trampoline_bytes);
  res

let to_bytes elf = Probe.span "elf.to_bytes" (fun () -> Elf_file.to_bytes elf)
let of_bytes b = Probe.span "elf.of_bytes" (fun () -> Elf_file.of_bytes b)

let verify ~original out =
  let v = Probe.span "static.verify" (fun () -> Static.verify ~original out) in
  (match v with
  | Ok rep ->
      Probe.add "static.changed_bytes" (float_of_int rep.Static.changed_bytes);
      Probe.add "static.trampolines_checked"
        (float_of_int rep.Static.trampolines_checked)
  | Error _ -> ());
  v

let compare_runs ?instr_ranges ~original out =
  let v =
    Probe.span "trace.compare_runs" (fun () ->
        Trace.compare_runs ?instr_ranges ~original out)
  in
  (match v with
  | Ok st -> Probe.add "trace.events" (float_of_int st.Trace.events)
  | Error _ -> ());
  v

let machine_run elf =
  let r = Probe.span "machine.run" (fun () -> Machine.run elf) in
  Probe.add "emu.insns" (float_of_int r.Cpu.insns);
  Probe.add "emu.block_hits" (float_of_int r.Cpu.block_hits);
  Probe.add "emu.block_misses" (float_of_int r.Cpu.block_misses);
  Probe.add "emu.block_invalidations" (float_of_int r.Cpu.block_invalidations);
  r

let verdict = function
  | Ok _ -> None
  | Error e -> Some (Format.asprintf "%a" Static.pp_error e)

(* The simplest correct baseline: the unsharded serial tactic search,
   driven from outside through the public layers in the rewriter's S1
   order (descending address). Returns the search time alone, which is
   what the rewriter's [tactic_search] span covers. *)
let serial_search elf ~select ~template =
  let text, sites = Frontend.disassemble elf in
  let opts = Rewriter.default_options in
  let layout =
    Layout.create ~block_size:(opts.Rewriter.granularity * 4096) elf
  in
  let buf =
    E9_bits.Buf.of_bytes
      (E9_bits.Buf.sub elf.Elf_file.data ~pos:text.Frontend.offset
         ~len:text.Frontend.size)
  in
  let sites = Array.of_list sites in
  let ctx =
    Tactics.create_ctx ~text:buf ~text_base:text.Frontend.base ~layout ~sites
      ~options:opts.Rewriter.tactics ()
  in
  let selected =
    Array.to_list sites |> List.filter select
    |> List.sort (fun (a : Frontend.site) b -> compare b.addr a.addr)
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun s -> ignore (Tactics.patch ctx s (template s))) selected;
  Unix.gettimeofday () -. t0

(* Emulated cycles of the input and of its rewrite, for the paper's Time%
   column. *)
let cycles ~original out =
  let o = Machine.run original and p = Machine.run out in
  if not (Machine.equivalent o p) then
    failwith "patched program is not observationally equivalent";
  (o.Cpu.cycles, p.Cpu.cycles)

let sizes (r : Rewriter.result) = (r.Rewriter.input_size, r.Rewriter.output_size)
