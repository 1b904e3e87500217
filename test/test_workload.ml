(* Tests for the synthetic workload generator and the evaluation suite. *)

module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Dromaeo = E9_workload.Dromaeo
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Insn = E9_x86.Insn
module Classify = E9_x86.Classify

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small ?(seed = 1L) ?(pie = false) () =
  { Codegen.default_profile with
    Codegen.seed; pie; functions = 30; iterations = 50 }

let test_deterministic_generation () =
  let a = Elf_file.to_bytes (Codegen.generate (small ())) in
  let b = Elf_file.to_bytes (Codegen.generate (small ())) in
  check_bool "same seed, same binary" true (Bytes.equal a b);
  let c = Elf_file.to_bytes (Codegen.generate (small ~seed:2L ())) in
  check_bool "different seed, different binary" false (Bytes.equal a c)

let test_programs_terminate_deterministically () =
  for s = 1 to 10 do
    let elf = Codegen.generate (small ~seed:(Int64.of_int s) ()) in
    let r1 = Machine.run elf and r2 = Machine.run elf in
    (match r1.Cpu.outcome with
    | Cpu.Exited _ -> ()
    | _ -> Alcotest.failf "seed %d did not exit cleanly" s);
    check_bool "reruns identical" true (Machine.equivalent r1 r2);
    check_int "checksum written" 8 (String.length r1.Cpu.output)
  done

let test_iterations_scale_runtime () =
  let run iters =
    let prof = { (small ()) with Codegen.iterations = iters } in
    (Machine.run (Codegen.generate prof)).Cpu.insns
  in
  let i100 = run 100 and i400 = run 400 in
  check_bool "4x iterations ~ 4x instructions" true
    (i400 > 3 * i100 && i400 < 5 * i100)

let test_pie_load_address () =
  let nonpie = Codegen.generate (small ()) in
  let pie = Codegen.generate (small ~pie:true ()) in
  check_int "non-PIE base" Codegen.base_nonpie nonpie.Elf_file.entry;
  check_int "PIE base" Codegen.base_pie pie.Elf_file.entry;
  check_bool "PIE e_type" true (pie.Elf_file.etype = Elf_file.Dyn)

let test_contains_indirect_control_flow () =
  (* The generator must produce the control flow that defeats static
     recovery: indirect jumps and calls. *)
  let elf = Codegen.generate { (small ()) with Codegen.functions = 60 } in
  let _, sites = Frontend.disassemble elf in
  let count p = List.length (List.filter p sites) in
  check_bool "indirect jumps present" true
    (count (fun s -> match s.Frontend.insn with Insn.Jmp_ind _ -> true | _ -> false) > 0);
  check_bool "indirect calls present" true
    (count (fun s -> match s.Frontend.insn with Insn.Call_ind _ -> true | _ -> false) > 0);
  check_bool "short jumps present" true
    (count (fun s ->
         match s.Frontend.insn with
         | Insn.Jcc_short _ | Insn.Jmp_short _ -> true
         | _ -> false)
     > 0);
  check_bool "heap writes present" true
    (count (fun s -> Classify.is_heap_write s.Frontend.insn) > 0)

let test_linear_disassembly_is_exact () =
  (* Our generated text contains no embedded data, so linear disassembly
     must decode every byte into a known instruction. *)
  let elf = Codegen.generate (small ()) in
  let _, sites = Frontend.disassemble elf in
  List.iter
    (fun (s : Frontend.site) ->
      match s.Frontend.insn with
      | Insn.Unknown b ->
          Alcotest.failf "undecodable byte %02x at 0x%x" b s.Frontend.addr
      | _ -> ())
    sites

let test_short_jump_bias_effect () =
  let frac bias =
    let prof = { (small ()) with Codegen.short_jump_bias = bias } in
    let _, sites = Frontend.disassemble (Codegen.generate prof) in
    let jumps = List.filter Frontend.select_jumps sites in
    let short =
      List.filter (fun (s : Frontend.site) -> s.Frontend.len = 2) jumps
    in
    float_of_int (List.length short) /. float_of_int (List.length jumps)
  in
  check_bool "bias raises short fraction" true (frac 0.8 > frac 0.1 +. 0.2)

let test_bss_segment () =
  let elf = Codegen.generate { (small ()) with Codegen.bss_mb = 100 } in
  let bss =
    List.find_opt
      (fun (s : Elf_file.segment) ->
        s.Elf_file.ptype = Elf_file.Load && s.Elf_file.memsz > 50_000_000)
      elf.Elf_file.segments
  in
  check_bool ".bss present" true (bss <> None);
  (match bss with
  | Some s -> check_int "no file payload" 0 s.Elf_file.filesz
  | None -> ());
  (* Huge .bss must not break execution (lazy zero pages). *)
  match (Machine.run elf).Cpu.outcome with
  | Cpu.Exited _ -> ()
  | _ -> Alcotest.fail "bss program did not run"

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let test_suite_complete () =
  check_int "41 Table 1 rows" 41 (List.length Suite.rows);
  check_int "28 SPEC rows" 28 (List.length Suite.spec_rows);
  check_bool "has chrome" true (Suite.find "chrome" <> None);
  check_bool "has libxul.so" true (Suite.find "libxul.so" <> None);
  check_bool "no bogus" true (Suite.find "nonesuch" = None)

let test_suite_flags_match_paper () =
  let pie name =
    (Option.get (Suite.find name)).Suite.profile.Codegen.pie
  in
  let shared name =
    (Option.get (Suite.find name)).Suite.profile.Codegen.shared_object
  in
  check_bool "vim is PIE" true (pie "vim");
  check_bool "chrome is PIE" true (pie "chrome");
  check_bool "gcc is not PIE" false (pie "gcc");
  check_bool "libc.so is shared" true (shared "libc.so");
  check_bool "gamess has huge bss" true
    ((Option.get (Suite.find "gamess")).Suite.profile.Codegen.bss_mb > 1000)

let test_suite_rows_runnable () =
  (* Spot-check a few representative rows end to end (full sweep is the
     benchmark harness's job). *)
  List.iter
    (fun name ->
      let row = Option.get (Suite.find name) in
      let prof = { row.Suite.profile with Codegen.iterations = 30 } in
      let elf = Codegen.generate prof in
      match (Machine.run elf).Cpu.outcome with
      | Cpu.Exited _ -> ()
      | _ -> Alcotest.failf "row %s did not run" name)
    [ "mcf"; "vim"; "libc.so"; "gamess" ]

let test_dromaeo_suites () =
  check_int "14 Dromaeo suites" 14 (List.length Dromaeo.suites);
  let s = List.hd Dromaeo.suites in
  let elf = Codegen.generate { (Dromaeo.program s) with Codegen.iterations = 20 } in
  match (Machine.run elf).Cpu.outcome with
  | Cpu.Exited _ -> ()
  | _ -> Alcotest.fail "dromaeo workload did not run"

let suites =
  [ ( "workload.codegen",
      [ Alcotest.test_case "deterministic" `Quick test_deterministic_generation;
        Alcotest.test_case "terminates deterministically" `Quick
          test_programs_terminate_deterministically;
        Alcotest.test_case "iterations scale runtime" `Quick
          test_iterations_scale_runtime;
        Alcotest.test_case "PIE load address" `Quick test_pie_load_address;
        Alcotest.test_case "indirect control flow" `Quick
          test_contains_indirect_control_flow;
        Alcotest.test_case "linear disassembly exact" `Quick
          test_linear_disassembly_is_exact;
        Alcotest.test_case "short-jump bias" `Quick test_short_jump_bias_effect;
        Alcotest.test_case ".bss segment" `Quick test_bss_segment ] );
    ( "workload.suite",
      [ Alcotest.test_case "complete" `Quick test_suite_complete;
        Alcotest.test_case "flags match paper" `Quick
          test_suite_flags_match_paper;
        Alcotest.test_case "rows runnable" `Quick test_suite_rows_runnable;
        Alcotest.test_case "dromaeo" `Quick test_dromaeo_suites ] ) ]

(* ------------------------------------------------------------------ *)
(* §6.2: data mixed into the text section (the Chrome challenge)       *)
(* ------------------------------------------------------------------ *)

let chrome_challenge_profile =
  { Codegen.default_profile with
    Codegen.seed = 33L; functions = 40; iterations = 60; data_in_text_kb = 2 }

let test_data_in_text_runs () =
  let elf = Codegen.generate chrome_challenge_profile in
  match (Machine.run elf).Cpu.outcome with
  | Cpu.Exited _ -> ()
  | _ -> Alcotest.fail "data-in-text program did not run"

let test_naive_patching_corrupts_data_in_text () =
  (* Linear disassembly from the start treats pool bytes as instructions;
     patching those "jumps" overwrites live data. The paper: the mixed
     .text "proved to be a challenge for our prototype linear disassembler
     frontend". *)
  let elf = Codegen.generate chrome_challenge_profile in
  let orig = Machine.run elf in
  let r =
    E9_core.Rewriter.run elf ~select:Frontend.select_jumps
      ~template:(fun _ -> E9_core.Trampoline.Empty)
  in
  Alcotest.(check bool) "naive patching corrupts the program" false
    (Machine.equivalent orig (Machine.run r.E9_core.Rewriter.output))

let test_chromemain_workaround () =
  (* "We only disassemble after the ChromeMain symbol." *)
  let elf = Codegen.generate chrome_challenge_profile in
  let orig = Machine.run elf in
  let r =
    E9_core.Rewriter.run ~holes:(Codegen.holes elf) elf
      ~select:Frontend.select_jumps
      ~template:(fun _ -> E9_core.Trampoline.Empty)
  in
  Alcotest.(check bool) "workaround preserves behaviour" true
    (Machine.equivalent orig (Machine.run r.E9_core.Rewriter.output));
  Alcotest.(check bool) "and still patches plenty" true
    (E9_core.Stats.total r.E9_core.Rewriter.stats > 100)

(* The generator's ground truth for data in the text: the leading pool of
   a [data_in_text_kb > 0] profile, the islands of the islands family,
   nothing on the default profile. *)
let test_holes_ground_truth () =
  let elf = Codegen.generate chrome_challenge_profile in
  let text = Option.get (Elf_file.find_section elf ".text") in
  (match Codegen.holes elf with
  | [ (a, l) ] ->
      Alcotest.(check int) "pool starts at the text" text.Elf_file.addr a;
      Alcotest.(check bool) "pool holds the data" true
        (l >= chrome_challenge_profile.Codegen.data_in_text_kb * 1024)
  | _ -> Alcotest.fail "expected exactly the leading pool");
  let f = Option.get (E9_workload.Adversary.find "islands") in
  let islands = Codegen.generate f.E9_workload.Adversary.profile in
  let base =
    (Option.get (Elf_file.find_section islands ".text")).Elf_file.addr
  in
  let holes = Codegen.holes islands in
  Alcotest.(check bool) "islands family has islands" true (holes <> []);
  Alcotest.(check bool) "and no leading pool" true
    (List.for_all (fun (a, l) -> a > base && l > 0) holes);
  Alcotest.(check bool) "default profile has no holes" true
    (Codegen.holes (Codegen.generate Codegen.default_profile) = [])

let suites =
  suites
  @ [ ( "workload.chrome-challenge",
        [ Alcotest.test_case "data-in-text runs" `Quick test_data_in_text_runs;
          Alcotest.test_case "naive patching corrupts" `Quick
            test_naive_patching_corrupts_data_in_text;
          Alcotest.test_case "ChromeMain workaround" `Quick
            test_chromemain_workaround;
          Alcotest.test_case "Codegen.holes ground truth" `Quick
            test_holes_ground_truth ] ) ]
