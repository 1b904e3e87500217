module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Trampoline = E9_core.Trampoline
module Cpu = E9_emu.Cpu

type case = {
  profile : Codegen.profile;
  options : Rewriter.options;
  select_writes : bool;
}

let case_to_string c =
  let p = c.profile in
  let t = c.options.Rewriter.tactics in
  Printf.sprintf
    "{seed=%Ld pie=%b fns=%d blk=%d sjb=%.2f hwb=%.2f bdb=%.2f swb=%.2f \
     insns=%d ptb=%.2f data_kb=%d iters=%d | base=%b t1=%b t2=%b t3=%b \
     b0=%b joint=%b gran=%d group=%b loader=%s select=%s}"
    p.Codegen.seed p.Codegen.pie p.Codegen.functions p.Codegen.blocks_per_fn
    p.Codegen.short_jump_bias p.Codegen.heap_write_bias p.Codegen.big_disp_bias
    p.Codegen.small_write_bias p.Codegen.block_insns p.Codegen.pic_table_bias
    p.Codegen.data_in_text_kb p.Codegen.iterations t.Tactics.enable_base
    t.Tactics.enable_t1 t.Tactics.enable_t2 t.Tactics.enable_t3
    t.Tactics.b0_fallback t.Tactics.t2_joint c.options.Rewriter.granularity
    c.options.Rewriter.grouping
    (match c.options.Rewriter.loader with
    | Rewriter.Table -> "table"
    | Rewriter.Stub -> "stub")
    (if c.select_writes then "writes" else "jumps")

let gen_case =
  let open QCheck2.Gen in
  let* seed = map Int64.of_int (int_bound 0x3fff_ffff) in
  let* pie = bool in
  let* functions = int_range 4 24 in
  let* blocks_per_fn = int_range 2 6 in
  let* short_jump_bias = float_bound_inclusive 0.9 in
  let* heap_write_bias = float_bound_inclusive 0.5 in
  let* big_disp_bias = float_bound_inclusive 1.0 in
  let* small_write_bias = float_bound_inclusive 1.0 in
  let* block_insns = int_range 1 6 in
  let* pic_table_bias = float_bound_inclusive 1.0 in
  let* data_in_text_kb = oneofl [ 0; 0; 0; 1; 2 ] in
  let* iterations = int_range 5 40 in
  let* enable_base = bool in
  let* enable_t1 = bool in
  let* enable_t2 = bool in
  let* enable_t3 = bool in
  let* b0_fallback = bool in
  let* t2_joint = bool in
  let* granularity = oneofl [ 1; 2; 4 ] in
  let* grouping = bool in
  let* stub = frequency [ (4, return false); (1, return true) ] in
  let* select_writes = bool in
  return
    { profile =
        { Codegen.default_profile with
          name = "fuzz";
          seed;
          pie;
          functions;
          blocks_per_fn;
          short_jump_bias;
          heap_write_bias;
          big_disp_bias;
          small_write_bias;
          block_insns;
          pic_table_bias;
          data_in_text_kb;
          iterations };
      options =
        { Rewriter.default_options with
          tactics =
            { Tactics.default_options with
              enable_base;
              enable_t1;
              enable_t2;
              enable_t3;
              b0_fallback;
              t2_joint };
          granularity;
          grouping;
          loader = (if stub then Rewriter.Stub else Rewriter.Table) };
      select_writes }

(* The generated programs finish well under this; a runaway rewrite shows
   up as Out_of_fuel on one side only, i.e. as a divergence. *)
let fuzz_config = { Cpu.default_config with Cpu.fuel = 50_000_000 }

(* Generate the case's binary and selector for the round trip below. *)
let prepare case =
  let elf = Codegen.generate case.profile in
  let disasm_from =
    if case.profile.Codegen.data_in_text_kb > 0 then
      Option.map
        (fun (s : Elf_file.section) -> s.Elf_file.addr)
        (Elf_file.find_section elf Codegen.chromemain_marker)
    else None
  in
  let select =
    if case.select_writes then Frontend.select_heap_writes
    else Frontend.select_jumps
  in
  (elf, disasm_from, select)

let rewrite case =
  let elf, disasm_from, select = prepare case in
  let r =
    Rewriter.run ~options:case.options ?disasm_from elf ~select
      ~template:(fun _ -> Trampoline.Empty)
  in
  (elf, disasm_from, r)

let run_case case =
  let elf, disasm_from, r = rewrite case in
  match Static.verify ?disasm_from ~original:elf r.Rewriter.output with
  | Error e -> Error (Format.asprintf "static: %a" Static.pp_error e)
  | Ok report -> (
      match
        Trace.compare_runs ~config:fuzz_config ?disasm_from ~original:elf
          r.Rewriter.output
      with
      | Error msg -> Error ("trace: " ^ msg)
      | Ok stats -> Ok (report, stats))

type summary = {
  cases : int;
  failed : (string * string) list;
  skipped : int;
  changed_bytes : int;
  diversions : int;
  short_jumps : int;
  traps : int;
  trampolines : int;
  boundary_retires : int;
  stores : int;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "%d cases, %d failed, %d skipped; %d changed bytes, %d diversions, \
     %d short jumps, %d traps, %d trampolines verified; %d boundary \
     retires, %d stores compared"
    s.cases
    (List.length s.failed)
    s.skipped s.changed_bytes s.diversions s.short_jumps s.traps
    s.trampolines s.boundary_retires s.stores

let campaign ?(progress = fun _ -> ()) ~n ~seed () =
  let rand = Random.State.make [| seed |] in
  let s =
    ref
      { cases = 0;
        failed = [];
        skipped = 0;
        changed_bytes = 0;
        diversions = 0;
        short_jumps = 0;
        traps = 0;
        trampolines = 0;
        boundary_retires = 0;
        stores = 0 }
  in
  for i = 1 to n do
    let case = QCheck2.Gen.generate1 ~rand gen_case in
    (match run_case case with
    | exception Codegen.Error _ ->
        (* An ungeneratable profile is the workload's failure, not the
           rewriter's: skip-and-report instead of aborting the campaign. *)
        s := { !s with cases = !s.cases + 1; skipped = !s.skipped + 1 }
    | Ok (r, t) ->
        s :=
          { !s with
            cases = !s.cases + 1;
            changed_bytes = !s.changed_bytes + r.Static.changed_bytes;
            diversions = !s.diversions + r.Static.diversions;
            short_jumps = !s.short_jumps + r.Static.short_jumps;
            traps = !s.traps + r.Static.traps;
            trampolines = !s.trampolines + r.Static.trampolines_checked;
            boundary_retires =
              !s.boundary_retires + t.Trace.boundary_retires;
            stores = !s.stores + t.Trace.stores }
    | Error msg ->
        s :=
          { !s with
            cases = !s.cases + 1;
            failed = (case_to_string case, msg) :: !s.failed });
    progress i
  done;
  { !s with failed = List.rev !s.failed }

let property ?(count = 50) ?(name = "rewrite is byte-accounted and trace-equivalent") () =
  QCheck2.Test.make ~count ~name ~print:case_to_string gen_case (fun case ->
      match run_case case with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_reportf "%s" msg)
