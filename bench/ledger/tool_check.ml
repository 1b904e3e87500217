(* tool-check: what `e9patch_cli tool --check` does, the instrumentation
   user's loop — compile a -M/-P pair, rewrite, then prove the result with
   both oracles and run it. Its run-time overhead and size are the paper's
   Time% and Size% columns. The programs are small and loop a lot, so the
   op's time goes to the emulator, the trace oracle and trampoline
   generation rather than to tactic search. *)

open Call

(* (functions, instructions one run of the program retires). *)
let programs = [ (60, 450_000); (200, 130_000) ]

(* The op's time is mostly emulation, so the work is held fixed across
   seeds: the main-loop trip count is chosen so that a run retires about
   [insns] instructions (retired instructions grow linearly with it). *)
let sized_program ~seed ~salt ~functions ~insns =
  let retired iterations =
    (Machine.run (generate ~seed ~salt ~functions ~iterations)).Cpu.insns
  in
  let one = retired 1 in
  let per_trip = max 1 (retired 2 - one) in
  let iterations = max 1 (1 + ((insns - one + (per_trip / 2)) / per_trip)) in
  generate ~seed ~salt ~functions ~iterations

let pairs =
  [ ("jumps", "count");
    ("jumps", "print");
    ("heap-writes", "lowfat");
    ("calls", "call:clean record(addr,size,3)") ]

type slot = {
  label : string;
  elf : Elf_file.t;
  reference : Cpu.result;  (** the original program's run *)
  rules : Tool.rule list;
  mutable first : (Rewriter.result * int) option;
      (** the first successful op's rewrite and emulated cycles *)
}

let op s () =
  let res = tool_run s.elf s.rules in
  let out = res.Tool.rewrite.Rewriter.output in
  let rt = res.Tool.runtime in
  Option.iter
    (fun e -> failwith ("static: " ^ e))
    (verdict (verify ~original:rt.Tool.augmented out));
  (match compare_runs ~instr_ranges:rt.Tool.instr_ranges ~original:rt.Tool.augmented out with
  | Ok _ -> ()
  | Error m -> failwith ("trace: " ^ m));
  let run = machine_run out in
  if not (Machine.equivalent s.reference run) then
    failwith "patched run differs from the original's";
  if s.first = None then s.first <- Some (res.Tool.rewrite, run.Cpu.cycles)

let finish slots ~trace =
  let done_ =
    List.filter_map (fun s -> Option.map (fun (r, cycles) -> (s, r, cycles)) s.first) slots
  in
  { Work.failures =
      List.filter_map
        (fun s -> if s.first = None then Some (s.label ^ ": never succeeded") else None)
        slots;
    patched =
      List.fold_left (fun acc (_, r, _) -> acc + Stats.succeeded r.Rewriter.stats) 0 done_;
    selected = List.fold_left (fun acc (_, r, _) -> acc + Stats.total r.Rewriter.stats) 0 done_;
    (* Against the file the user passed, not the runtime-augmented copy. *)
    sizes =
      List.map (fun (s, r, _) -> (Elf_file.serialized_size s.elf, r.Rewriter.output_size)) done_;
    cycles = List.map (fun (s, _, cycles) -> (s.reference.Cpu.cycles, cycles)) done_;
    serial_ref_s =
      (if trace then
         List.fold_left
           (fun acc s ->
             let rt = Tool.inject s.elf in
             let select, template = Tool.to_rewriter_args rt s.rules in
             acc +. serial_search rt.Tool.augmented ~select ~template)
           0.0 slots
       else 0.0) }

let generate seed =
  let inputs =
    List.mapi
      (fun i (functions, insns) ->
        (functions, sized_program ~seed ~salt:(300 + i) ~functions ~insns))
      programs
  in
  fun () ->
    (* Set-up runs each original program once: the cycle counts every
       overhead is measured against. *)
    let slots =
      List.concat_map
        (fun (functions, elf) ->
          let reference = Machine.run elf in
          List.map
            (fun (m, p) ->
              { label = Printf.sprintf "%dfn.%s|%s" functions m p; elf; reference;
                rules = [ Tool.rule_of ~m ~p () ]; first = None })
            pairs)
        inputs
    in
    { Work.steps =
        Array.of_list
          (List.map
             (fun s -> Work.Op { label = s.label; run = op s })
             slots);
      finish = finish slots }

let workload = { Work.name = "tool-check"; passes = 12; generate }
