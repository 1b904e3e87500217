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
module Matrix = E9_check.Matrix
module Adversary = E9_workload.Adversary

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
      options = { Rewriter.default_options with Rewriter.granularity = 2 };
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

(* A byte flipped in the middle of a data island of a verified rewrite:
   the rewriter never patches data, so the verifier must reject the byte
   as outside the code, the way it rejects one in a leading pool. *)
let test_island_byte_rejected () =
  let f = Option.get (Adversary.find "islands") in
  let elf, holes = Matrix.prepare f in
  let r =
    Rewriter.run ~options:(Matrix.options_of f) ~holes elf
      ~select:Frontend.select_jumps ~template:(fun _ -> Trampoline.Empty)
  in
  (match Static.verify ~holes ~original:elf r.Rewriter.output with
  | Error e ->
      Alcotest.failf "pristine islands rewrite rejected: %s"
        (Format.asprintf "%a" Static.pp_error e)
  | Ok _ -> ());
  let addr, len = List.find (fun (_, l) -> l >= 3) holes in
  let mid = addr + (len / 2) in
  (* Both sides serialized, as [e9patch_cli check FILE FILE] sees them. *)
  let original = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let out = Elf_file.to_bytes r.Rewriter.output in
  let text = Option.get (Frontend.find_text elf) in
  let off = text.Frontend.offset + (mid - text.Frontend.base) in
  Bytes.set out off (Char.chr (Char.code (Bytes.get out off) lxor 0xff));
  match Static.verify ~holes ~original (Elf_file.of_bytes out) with
  | Ok _ -> Alcotest.fail "changed island byte accepted"
  | Error e ->
      Alcotest.(check int) "reported at the flipped byte" mid e.Static.addr;
      Alcotest.(check string) "reason"
        "changed byte outside the disassembled code region" e.Static.reason

(* The corpus-punning case with T1 and T2 turned off, so every site the
   base tactic cannot patch escalates to T3. Its rewrite holds T3 short
   jumps: a 2-byte [jmp rel8] at the patch site serving a punned jump at
   a non-boundary address. The three corruptions below each break one
   link of that chain, so the verifier must notice through the
   short-jump and trampoline lookups, not just the byte diff. Returns
   the original, the serialized output, a verifier over corrupted copies
   of it, and the T3 shorts as (site, punned jump) pairs. *)
let punning_rewrite () =
  let case = List.nth corpus 2 in
  let forced =
    { case.Fuzz.options.Rewriter.tactics with
      Tactics.enable_t1 = false;
      enable_t2 = false }
  in
  let elf, holes, r =
    Fuzz.rewrite
      { case with
        Fuzz.options = { case.Fuzz.options with Rewriter.tactics = forced } }
  in
  let out = Elf_file.to_bytes r.Rewriter.output in
  (* Both sides serialized, as [e9patch_cli check FILE FILE] sees them. *)
  let original = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let verify b = Static.verify ~holes ~original (Elf_file.of_bytes b) in
  let report =
    match verify out with
    | Ok report -> report
    | Error e ->
        Alcotest.failf "pristine punning rewrite rejected: %s"
          (Format.asprintf "%a" Static.pp_error e)
  in
  let text = Option.get (Frontend.find_text r.Rewriter.output) in
  let off a = text.Frontend.offset + (a - text.Frontend.base) in
  let cls a = List.assoc_opt a report.Static.classified in
  let shorts =
    List.filter_map
      (fun (a, c) ->
        if c <> Static.Short_jump || cls (a - 1) = Some Static.Short_jump
        then None
        else
          match (Decode.decode out (off a)).Decode.insn with
          | Insn.Jmp_short rel when rel >= 0 -> Some (a, a + 2 + rel)
          | _ -> None)
      report.Static.classified
  in
  check_bool "rewrite has T3 short jumps" true (shorts <> []);
  (elf, out, off, verify, shorts)

let rejected what = function
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error (e : Static.error) -> e

(* A T3 short jump's rel8 moved by one: it now lands one byte inside the
   punned jump it served. *)
let test_short_rel8_moved_rejected () =
  let _, out, off, verify, shorts = punning_rewrite () in
  let s, _ = List.hd shorts in
  let b = Bytes.copy out in
  Bytes.set b (off (s + 1))
    (Char.chr ((Char.code (Bytes.get b (off (s + 1))) + 1) land 0xff));
  let e = rejected "moved rel8" (verify b) in
  Alcotest.(check int) "reported at the short's site" s e.Static.addr

(* A T3 short's two original bytes restored, which unpatches its site.
   Where the punned jump it served lies wholly in bytes its victim's own
   jump already rewrote, nothing enters that jump any more and the pair
   is sound. Where the punned jump has rewritten bytes of its own, they
   are orphaned: a jump at a non-boundary address that no short serves,
   which the verifier must report at that jump. This rewrite has shorts
   of both kinds; every restoration is either sound or rejected so. *)
let test_short_restored_rejected () =
  let elf, out, off, verify, shorts = punning_rewrite () in
  let orig = Elf_file.to_bytes elf in
  let orphans =
    List.filter_map
      (fun (s, jp) ->
        let b = Bytes.copy out in
        Bytes.blit orig (off s) b (off s) 2;
        match verify b with Ok _ -> None | Error e -> Some (jp, e))
      shorts
  in
  check_bool "some restored short orphans its punned jump" true
    (orphans <> []);
  List.iter
    (fun (jp, (e : Static.error)) ->
      Alcotest.(check int) "reported at the orphaned jump" jp e.Static.addr;
      check_bool "reported as unserved" true
        (String.ends_with ~suffix:"with no serving short jump" e.Static.reason))
    orphans

(* A second short jump forged at a later instruction boundary, aimed at
   a punned jump a T3 short already serves. The punned jump's trampoline
   returns to the first site's continuation, so it cannot serve the
   forged site: the verifier resolves a punned jump to its most recently
   registered short (the forged one, walked later) and must reject. *)
let test_second_short_rejected () =
  let elf, out, off, verify, shorts = punning_rewrite () in
  let orig = Elf_file.to_bytes elf in
  let _, sites = Frontend.disassemble elf in
  let unchanged a = Bytes.get out (off a) = Bytes.get orig (off a) in
  let forged =
    List.find_map
      (fun (s1, jp) ->
        List.find_map
          (fun (site : Frontend.site) ->
            let s2 = site.Frontend.addr in
            if s2 > s1 + 1 && s2 + 2 < jp && unchanged s2 && unchanged (s2 + 1)
            then Some (s2, jp)
            else None)
          sites)
      shorts
  in
  match forged with
  | None -> Alcotest.fail "no boundary to forge a second short at"
  | Some (s2, jp) ->
      let b = Bytes.copy out in
      Bytes.set b (off s2) '\xeb';
      Bytes.set b (off (s2 + 1)) (Char.chr (jp - s2 - 2));
      let e = rejected "second short" (verify b) in
      check_bool "reported as a wrong terminal jump" true
        (String.starts_with ~prefix:"terminal jump reaches" e.Static.reason)

(* One trampoline's terminal [jmp] retargeted by one byte: the trampoline
   no longer returns to the displaced instruction's continuation. *)
let test_trampoline_retargeted_rejected () =
  let _, out, off, verify, shorts = punning_rewrite () in
  let _, jp = List.hd shorts in
  let tramp =
    match Decode.decode out (off jp) with
    | { Decode.insn = Insn.Jmp rel; len; _ } -> jp + len + rel
    | _ -> Alcotest.fail "punned jump does not decode as jmp rel32"
  in
  let rewritten = Elf_file.of_bytes out in
  let mappings =
    Loadmap.decode_mappings
      (Elf_file.section_bytes rewritten
         (Option.get
            (Elf_file.find_section rewritten Elf_file.mmap_section_name)))
  in
  let m =
    List.find
      (fun (m : Loadmap.mapping) ->
        tramp >= m.Loadmap.vaddr && tramp < m.Loadmap.vaddr + m.Loadmap.len)
      mappings
  in
  let rec terminal pos =
    let d = Decode.decode out pos in
    match d.Decode.insn with
    | Insn.Jmp _ -> pos + d.Decode.len - 4
    | _ -> terminal (pos + d.Decode.len)
  in
  let rel = terminal (m.Loadmap.file_off + (tramp - m.Loadmap.vaddr)) in
  let b = Bytes.copy out in
  Bytes.set_int32_le b rel (Int32.add (Bytes.get_int32_le b rel) 1l);
  let e = rejected "retargeted trampoline" (verify b) in
  check_bool "reported as a wrong terminal jump" true
    (String.starts_with ~prefix:"terminal jump reaches" e.Static.reason)

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

(* The boundary-retire register hash, written as a sum of independent
   products, equals the reference chain: the rolling mix folded over the
   16 registers in order. Negative values and the extremes included. *)
let prop_regs_hash =
  let mix h v = ((h * 0x100000001b3) + v) land max_int in
  QCheck.Test.make ~name:"Trace.regs_hash is the mix chain over 16 registers"
    ~count:2000
    QCheck.(
      array_of_size (Gen.return 16)
        (oneof [ int; small_signed_int; oneofl [ min_int; max_int; -1; 0 ] ]))
    (fun regs -> Trace.regs_hash regs = Array.fold_left mix 0 regs)

(* A clean-call rewrite of the tool-smoke input ([generate --functions 40
   --iterations 80 --seed 7], read back from its file) checked without
   its instrumentation-private ranges: the runtime's stores are
   program-visible to the oracle, so the hashes differ and both programs
   are run again to name the first divergent event. The message,
   register hash included, is the one the oracle printed when it
   recorded every run. *)
let test_hash_divergence_named () =
  let elf =
    Elf_file.of_bytes
      (Elf_file.to_bytes
         (Codegen.generate
            { Codegen.default_profile with
              Codegen.seed = 7L;
              functions = 40;
              iterations = 80 }))
  in
  let res =
    E9_tool.Tool.run elf
      [ E9_tool.Tool.rule_of ~m:"calls" ~p:"call:clean record(addr,size,3)" () ]
  in
  match
    Trace.compare_runs ~original:res.E9_tool.Tool.runtime.E9_tool.Tool.augmented
      res.E9_tool.Tool.rewrite.Rewriter.output
  with
  | Ok _ -> Alcotest.fail "runtime stores compared as program stores"
  | Error m ->
      Alcotest.(check string) "first divergent event"
        "trace diverged: event 19: retire 0x4000c6 (regs 235a1b2962bb9a14) vs \
         store [0x427000]<-140737471578112 (8 bytes)"
        m

(* Under a fuel cap both runs stop out of fuel, and the rewritten one,
   which retires trampoline instructions too, reaches fewer events. The
   run whose trace ends first inside the recorded window is named on its
   own side of the "vs", in either order of the pair. *)
let test_end_of_trace_orientation () =
  let elf =
    Codegen.generate { Codegen.default_profile with Codegen.functions = 25 }
  in
  let out =
    (Rewriter.run elf ~select:Frontend.select_jumps
       ~template:(fun _ -> Trampoline.Empty))
      .Rewriter.output
  in
  let config = { E9_emu.Cpu.default_config with E9_emu.Cpu.fuel = 5000 } in
  let message ~original rewritten =
    match Trace.compare_runs ~config ~original rewritten with
    | Ok _ -> Alcotest.fail "fuel-capped runs compared equal"
    | Error m -> m
  in
  Alcotest.(check string) "rewritten ends first"
    "trace diverged: event 4784: retire 0x4006ee (regs 1cd70f26b3300df3) vs \
     end of trace"
    (message ~original:elf out);
  Alcotest.(check string) "original ends first"
    "trace diverged: event 4403: end of trace vs retire 0x4006ee (regs \
     1cd70f26b3300df3)"
    (message ~original:out elf)

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
let prop_inject = Inject.property ~count:15 ()

let suites =
  [ ( "check",
      [ Alcotest.test_case "regression corpus verifies" `Quick test_corpus;
        Alcotest.test_case "flipped displacement rejected" `Quick
          test_flipped_displacement_rejected;
        Alcotest.test_case "stray byte change rejected" `Quick
          test_stray_byte_rejected;
        Alcotest.test_case "changed island byte rejected" `Quick
          test_island_byte_rejected;
        Alcotest.test_case "T3 short rel8 moved rejected" `Quick
          test_short_rel8_moved_rejected;
        Alcotest.test_case "T3 short restored rejected" `Quick
          test_short_restored_rejected;
        Alcotest.test_case "trampoline retargeted rejected" `Quick
          test_trampoline_retargeted_rejected;
        Alcotest.test_case "second short to one punned jump rejected" `Quick
          test_second_short_rejected;
        Alcotest.test_case "file round trip verifies" `Quick
          test_file_roundtrip_verifies;
        Alcotest.test_case "B0-degraded rewrite is trace-equivalent" `Quick
          test_b0_degraded_trace_equivalent;
        Alcotest.test_case "inject campaign deterministic" `Quick
          test_inject_campaign_deterministic;
        Alcotest.test_case "hash divergence names the first event" `Quick
          test_hash_divergence_named;
        Alcotest.test_case "end of trace on the side that ended" `Quick
          test_end_of_trace_orientation;
        QCheck_alcotest.to_alcotest prop_regs_hash;
        QCheck_alcotest.to_alcotest prop_fuzz;
        QCheck_alcotest.to_alcotest prop_inject ] ) ]
