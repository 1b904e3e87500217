(* Tests for the E9_check differential oracle: a seeded regression corpus
   over the main tactic regimes, rejection of corrupted rewrites, and the
   QCheck fuzz property itself. *)

module Insn = E9_x86.Insn
module Decode = E9_x86.Decode
module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Trampoline = E9_core.Trampoline
module Static = E9_check.Static
module Fuzz = E9_check.Fuzz

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Seeded regression corpus                                            *)
(* ------------------------------------------------------------------ *)

(* Three fixed points covering the regimes the fuzzer samples: the default
   Table loader on jumps, the Stub loader on a PIE, and a punning-heavy A2
   workload (small writes force T2/T3) with data-in-text. *)
let corpus =
  let profile name seed f =
    f { Codegen.default_profile with Codegen.name; seed }
  in
  [ { Fuzz.profile =
        profile "corpus-table" 101L (fun p ->
            { p with Codegen.functions = 20; iterations = 30 });
      options = Rewriter.default_options;
      select_writes = false };
    { Fuzz.profile =
        profile "corpus-stub" 102L (fun p ->
            { p with Codegen.pie = true; functions = 12; iterations = 20 });
      options = { Rewriter.default_options with Rewriter.loader = Rewriter.Stub };
      select_writes = false };
    { Fuzz.profile =
        profile "corpus-punning" 103L (fun p ->
            { p with
              Codegen.functions = 16;
              small_write_bias = 1.0;
              short_jump_bias = 0.8;
              data_in_text_kb = 1;
              iterations = 20 });
      options =
        { Rewriter.default_options with
          Rewriter.tactics =
            { Tactics.default_options with Tactics.t2_joint = true };
          granularity = 2 };
      select_writes = true } ]

let test_corpus () =
  List.iter
    (fun case ->
      match Fuzz.run_case case with
      | Error msg ->
          Alcotest.failf "corpus case %s failed: %s"
            case.Fuzz.profile.Codegen.name msg
      | Ok (report, stats) ->
          check_bool "bytes changed" true (report.Static.changed_bytes > 0);
          check_bool "diversions found" true (report.Static.diversions > 0);
          check_bool "retires compared" true (stats.E9_check.Trace.boundary_retires > 0))
    corpus

(* ------------------------------------------------------------------ *)
(* Corrupted rewrites are rejected                                     *)
(* ------------------------------------------------------------------ *)

let rewrite seed =
  let elf =
    Codegen.generate { Codegen.default_profile with Codegen.seed }
  in
  let r =
    Rewriter.run elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  (elf, r)

(* Flip one bit of a patched jump's rel32 displacement: the jump no longer
   lands in a reserved trampoline region, so the verifier must reject it. *)
let test_flipped_displacement_rejected () =
  let elf, r = rewrite 201L in
  (match Static.verify ~original:elf r.Rewriter.output with
  | Error e ->
      Alcotest.failf "pristine rewrite rejected: %s"
        (Format.asprintf "%a" Static.pp_error e)
  | Ok _ -> ());
  let out = Elf_file.to_bytes r.Rewriter.output in
  let text = Option.get (Frontend.find_text r.Rewriter.output) in
  let text_bytes = Bytes.sub out text.Frontend.offset text.Frontend.size in
  let jmp_site =
    List.find_map
      (fun (addr, _) ->
        let d = Decode.decode text_bytes (addr - text.Frontend.base) in
        match d.Decode.insn with
        | Insn.Jmp _ -> Some (addr, d.Decode.len)
        | _ -> None)
      r.Rewriter.patched_sites
  in
  match jmp_site with
  | None -> Alcotest.fail "no patched jmp site to corrupt"
  | Some (addr, len) ->
      (* The rel32 displacement is the trailing 4 bytes of the jump. *)
      let off = text.Frontend.offset + (addr - text.Frontend.base) + len - 1 in
      Bytes.set out off (Char.chr (Char.code (Bytes.get out off) lxor 0x40));
      let corrupted = Elf_file.of_bytes out in
      check_bool "flipped displacement rejected" true
        (Result.is_error (Static.verify ~original:elf corrupted))

(* A stray byte change in an unpatched region must also be rejected — the
   verifier accounts for every changed byte, not just the patched sites. *)
let test_stray_byte_rejected () =
  let elf, r = rewrite 202L in
  let out = Elf_file.to_bytes r.Rewriter.output in
  let orig = Elf_file.to_bytes elf in
  let text = Option.get (Frontend.find_text elf) in
  (* Find an unchanged text byte and perturb it. *)
  let off = ref (-1) in
  (try
     for i = text.Frontend.offset to text.Frontend.offset + text.Frontend.size - 1
     do
       if Bytes.get out i = Bytes.get orig i then begin
         off := i;
         raise Exit
       end
     done
   with Exit -> ());
  check_bool "found an unchanged byte" true (!off >= 0);
  Bytes.set out !off (Char.chr (Char.code (Bytes.get out !off) lxor 0x01));
  check_bool "stray change rejected" true
    (Result.is_error (Static.verify ~original:elf (Elf_file.of_bytes out)))

(* Through a full file round trip both sides carry serialized ELF headers;
   the verifier must exempt exactly the fields serialization regenerates
   (e_shoff, the grown phdr slots, stub-mode e_entry) and nothing else.
   This is the [e9patch_cli check FILE FILE] path. *)
let test_file_roundtrip_verifies () =
  List.iter
    (fun (name, loader) ->
      let elf =
        Codegen.generate { Codegen.default_profile with Codegen.seed = 203L }
      in
      let o = Elf_file.of_bytes (Elf_file.to_bytes elf) in
      let r =
        Rewriter.run
          ~options:{ Rewriter.default_options with Rewriter.loader }
          o ~select:Frontend.select_jumps
          ~template:(fun _ -> Trampoline.Empty)
      in
      let p = Elf_file.of_bytes (Elf_file.to_bytes r.Rewriter.output) in
      match Static.verify ~original:o p with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s roundtrip rejected: %s" name
            (Format.asprintf "%a" Static.pp_error e))
    [ ("table", Rewriter.Table); ("stub", Rewriter.Stub) ]

(* ------------------------------------------------------------------ *)
(* Fault-injection hardening (DESIGN.md §11)                           *)
(* ------------------------------------------------------------------ *)

module Fault = E9_fault.Fault
module Inject = E9_check.Inject
module Trace = E9_check.Trace

(* A fully B0-degraded rewrite is not just statically sound: the trace
   oracle sees the same architectural retirement stream, every patched
   site crossed through the trap handler. *)
let test_b0_degraded_trace_equivalent () =
  let elf =
    Codegen.generate
      { Codegen.default_profile with
        Codegen.seed = 204L;
        functions = 24;
        iterations = 25 }
  in
  let options =
    { Rewriter.default_options with
      Rewriter.tactics =
        { Tactics.default_options with Tactics.b0_fallback = true } }
  in
  let fault = Fault.create (Fault.parse "alloc@0+") in
  let r =
    Rewriter.run ~options ~fault elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  let s = r.Rewriter.stats in
  check_bool "everything on B0" true
    (s.E9_core.Stats.b0 > 0 && s.E9_core.Stats.b0 = E9_core.Stats.total s);
  match Trace.compare_runs ~original:elf r.Rewriter.output with
  | Ok stats ->
      check_bool "trap boundaries retired" true (stats.Trace.boundary_retires > 0)
  | Error m -> Alcotest.failf "B0-degraded binary diverged: %s" m

(* A deterministic spot check of the campaign runner itself (the QCheck
   property below redraws random cases): same seed => same summary. *)
let test_inject_campaign_deterministic () =
  let a = Inject.campaign ~n:6 ~seed:7 () in
  let b = Inject.campaign ~n:6 ~seed:7 () in
  Alcotest.(check int) "cases" 6 a.Inject.cases;
  Alcotest.(check (list (pair string string))) "no violations" [] a.Inject.failures;
  check_bool "summaries identical" true
    (a.Inject.full = b.Inject.full
    && a.Inject.degraded = b.Inject.degraded
    && a.Inject.typed = b.Inject.typed
    && a.Inject.b0_sites = b.Inject.b0_sites)

(* ------------------------------------------------------------------ *)
(* The fuzz property                                                   *)
(* ------------------------------------------------------------------ *)

let prop_fuzz = Fuzz.property ~count:25 ()
let prop_jobs = Fuzz.jobs_property ~count:15 ~jobs:[ 2; 4; 7 ] ()
let prop_steal = Fuzz.steal_property ~count:8 ~jobs:[ 2; 4; 7 ] ()
let prop_incremental = Fuzz.incremental_property ~count:8 ~jobs:[ 1; 4 ] ()
let prop_inject = Inject.property ~count:15 ()

let suites =
  [ ( "check",
      [ Alcotest.test_case "regression corpus verifies" `Quick test_corpus;
        Alcotest.test_case "flipped displacement rejected" `Quick
          test_flipped_displacement_rejected;
        Alcotest.test_case "stray byte change rejected" `Quick
          test_stray_byte_rejected;
        Alcotest.test_case "file round trip verifies" `Quick
          test_file_roundtrip_verifies;
        Alcotest.test_case "B0-degraded rewrite is trace-equivalent" `Quick
          test_b0_degraded_trace_equivalent;
        Alcotest.test_case "inject campaign deterministic" `Quick
          test_inject_campaign_deterministic;
        QCheck_alcotest.to_alcotest prop_fuzz;
        QCheck_alcotest.to_alcotest prop_jobs;
        QCheck_alcotest.to_alcotest prop_steal;
        QCheck_alcotest.to_alcotest prop_incremental;
        QCheck_alcotest.to_alcotest prop_inject ] ) ]
