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

(* A good [pie] rewrite under [heap-writes|lowfat], its first B1
   trampoline's scratch store moved 2 GiB away: the store now resolves
   into unmapped memory, the shape of a disp32 that wrapped because its
   trampoline was placed out of reach of the runtime. *)
let test_unreachable_scratch_rejected () =
  let module Tool = E9_tool.Tool in
  let f = Option.get (Adversary.find "pie") in
  let elf, holes = Matrix.prepare f in
  let res =
    Tool.run ~options:(Matrix.options_of f) ~holes elf
      [ Tool.rule_of ~m:"heap-writes" ~p:"lowfat" () ]
  in
  let rewritten = res.Tool.rewrite.Rewriter.output in
  let out = Elf_file.to_bytes rewritten in
  let verify b =
    Static.verify ~holes ~original:res.Tool.runtime.Tool.augmented
      (Elf_file.of_bytes b)
  in
  (match verify out with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "good rewrite: %a" Static.pp_error e);
  let text = Option.get (Frontend.find_text rewritten) in
  let site, _ =
    List.find
      (fun (_, t) -> t = E9_core.Stats.B1)
      res.Tool.rewrite.Rewriter.patched_sites
  in
  let tramp =
    match
      Decode.decode out (text.Frontend.offset + (site - text.Frontend.base))
    with
    | { Decode.insn = Insn.Jmp rel; len; _ } -> site + len + rel
    | _ -> Alcotest.fail "B1 site does not decode as jmp rel32"
  in
  let m =
    List.find
      (fun (m : Loadmap.mapping) ->
        tramp >= m.Loadmap.vaddr && tramp < m.Loadmap.vaddr + m.Loadmap.len)
      (Loadmap.decode_mappings
         (Elf_file.section_bytes rewritten
            (Option.get
               (Elf_file.find_section rewritten Elf_file.mmap_section_name))))
  in
  let pos = m.Loadmap.file_off + (tramp - m.Loadmap.vaddr) in
  (match Decode.decode out pos with
  | { Decode.insn = Insn.Mov (Insn.Q, Insn.Mem mem, Insn.Reg E9_x86.Reg.RDI); len; _ }
    when mem.Insn.rip_rel ->
      check_bool "the store reaches the scratch slot" true
        (tramp + len + mem.Insn.disp
        = (Option.get res.Tool.runtime.Tool.pages).Tool.scratch)
  | _ -> Alcotest.fail "lowfat trampoline does not open with the scratch store");
  let b = Bytes.copy out in
  (* +2^31 and -2^31 are one disp32 edit: the field wraps mod 2^32. *)
  Bytes.set_int32_le b (pos + 3)
    (Int32.add (Bytes.get_int32_le b (pos + 3)) Int32.min_int);
  let e = rejected "scratch store moved 2 GiB" (verify b) in
  check_bool "reported as an unmapped operand" true
    (String.starts_with ~prefix:"trampoline rip-relative operand"
       e.Static.reason)

(* Data a linear sweep decodes as code can hold a call to anywhere. Its
   trampoline copies the call faithfully, so its target resolving
   outside every segment is the original's, not a wrapped displacement:
   the reach rule exempts the displaced instruction's own targets. *)
(* A one-segment executable whose text at [exit_base] is [exit(0)]
   ([mov rax, 60; mov rdi, 0; syscall]) followed by [tail]. *)
let exit_base = 0x400000

let exit_elf tail =
  let module Asm = E9_x86.Asm in
  let module Reg = E9_x86.Reg in
  let asm = Asm.create ~base:exit_base in
  List.iter (Asm.ins asm)
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60)
    :: Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 0)
    :: Insn.Syscall :: tail);
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:exit_base in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx;
        vaddr = exit_base; offset = 0; filesz = 0;
        memsz = Bytes.length code; align = 4096 }
      ~content:code
  in
  elf.Elf_file.sections <-
    [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6; addr = exit_base;
        offset = off; size = Bytes.length code } ];
  elf

let test_displaced_wild_call_verifies () =
  (* Never executed: a call 256 MiB below the only segment. *)
  let elf = exit_elf [ Insn.Call (-0x1000_0000); Insn.Ret ] in
  let r =
    Rewriter.run elf
      ~select:(fun s ->
        match s.Frontend.insn with Insn.Call _ -> true | _ -> false)
      ~template:(fun _ -> Trampoline.Empty)
  in
  check_bool "the call was patched" true
    (r.Rewriter.patched_sites <> []);
  match Static.verify ~original:elf r.Rewriter.output with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %a" Static.pp_error e

(* A one-site rewrite: the first [mov] of [exit_elf []], patched with an
   empty template, so its one trampoline (the displaced mov, then the
   jump back) lies in one mapping. [cut delta] is the serialized output
   with that mapping ending [delta] bytes after the trampoline. Returns
   the original, [cut] and the address of the trampoline's terminal
   jump. *)
let one_trampoline () =
  let original = Elf_file.of_bytes (Elf_file.to_bytes (exit_elf [])) in
  let r =
    Rewriter.run original
      ~select:(fun s -> s.Frontend.addr = exit_base)
      ~template:(fun _ -> Trampoline.Empty)
  in
  let out = Elf_file.to_bytes r.Rewriter.output in
  let rewritten = Elf_file.of_bytes out in
  let sec =
    Option.get (Elf_file.find_section rewritten Elf_file.mmap_section_name)
  in
  let mappings =
    Loadmap.decode_mappings (Elf_file.section_bytes rewritten sec)
  in
  let text = Option.get (Frontend.find_text rewritten) in
  let tramp =
    match Decode.decode out text.Frontend.offset with
    | { Decode.insn = Insn.Jmp rel; len; _ } -> exit_base + len + rel
    | _ -> Alcotest.fail "patched site does not decode as jmp rel32"
  in
  let m =
    List.find
      (fun (m : Loadmap.mapping) ->
        tramp >= m.Loadmap.vaddr && tramp < m.Loadmap.vaddr + m.Loadmap.len)
      mappings
  in
  let file a = m.Loadmap.file_off + (a - m.Loadmap.vaddr) in
  let rec terminal va =
    let d = Decode.decode out (file va) in
    match d.Decode.insn with
    | Insn.Jmp _ -> (va, va + d.Decode.len)
    | _ -> terminal (va + d.Decode.len)
  in
  let jmp, tramp_end = terminal tramp in
  let cut delta =
    let b = Bytes.copy out in
    let len = tramp_end + delta - m.Loadmap.vaddr in
    Bytes.blit
      (Loadmap.encode_mappings
         (List.map
            (fun (m' : Loadmap.mapping) ->
              if m' = m then { m with Loadmap.len } else m')
            mappings))
      0 b sec.Elf_file.offset sec.Elf_file.size;
    Elf_file.of_bytes b
  in
  (original, cut, jmp)

(* A trampoline whose mapping ends exactly where its terminal jump ends,
   five bytes after the jump starts: the jump decodes from the padded
   copy and reaches none of its padding. *)
let test_tramp_ending_at_mapping_end_verifies () =
  let original, cut, _ = one_trampoline () in
  match Static.verify ~original (cut 0) with
  | Ok r -> Alcotest.(check int) "one trampoline" 1 r.Static.trampolines_checked
  | Error e -> Alcotest.failf "rejected: %a" Static.pp_error e

(* The same mapping one byte shorter: the terminal jump's last byte lies
   past its mapping's end. *)
let test_tramp_past_mapping_end_rejected () =
  let original, cut, jmp = one_trampoline () in
  let e =
    rejected "trampoline cut by its mapping"
      (Static.verify ~original (cut (-1)))
  in
  Alcotest.(check int) "reported at the terminal jump" jmp e.Static.addr;
  Alcotest.(check string) "reason" "trampoline decoding left the mapped region"
    e.Static.reason

(* The verifier decodes a candidate diversion start only where
   [Static.can_start_jump] holds of its byte, so that must be necessary:
   for each of the 256 first bytes it rejects, whatever follows, the
   decoder yields no [jmp rel32] whose prefixes all lie in the pad set.
   The tails open with prefix runs, pad-set and not, and mostly an
   [e9], so a jump a rejected byte could front is there to be found. *)
let prop_jump_start_filter =
  let gen =
    QCheck.Gen.(
      let* run = int_range 0 18 in
      let* pre =
        list_repeat run
          (oneofl (0x66 :: 0x67 :: 0xf2 :: 0xf3 :: Static.pad_set))
      in
      let* op = frequency [ (3, return 0xe9); (1, int_bound 255) ] in
      let* rest = list_repeat 8 (int_bound 255) in
      return
        (String.of_seq
           (List.to_seq (List.map Char.chr (pre @ (op :: rest))))))
  in
  QCheck.Test.make ~name:"no padded jmp starts where the filter rejects"
    ~count:500 (QCheck.make ~print:String.escaped gen) (fun tail ->
      List.for_all
        (fun b ->
          Static.can_start_jump b
          ||
          let code = String.make 1 (Char.chr b) ^ tail in
          match Decode.decode (Bytes.of_string code) 0 with
          | { Decode.insn = Insn.Jmp _; prefixes; _ } ->
              not (List.for_all (fun p -> List.mem p Static.pad_set) prefixes)
          | _ -> true)
        (List.init 256 Fun.id))

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

(* ------------------------------------------------------------------ *)
(* The rewrite's index, read by both oracles                           *)
(* ------------------------------------------------------------------ *)

let islands_input ~seed ~pool_kb ~islands =
  Codegen.generate
    { Codegen.default_profile with
      Codegen.seed = Int64.of_int seed; functions = 12; iterations = 2;
      data_in_text_kb = pool_kb;
      island_bias = (if islands then 0.3 else 0.0) }

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* An oracle reuses only the sweep it would have made itself: an index
   swept with other holes, one a decode fault cut short and one another
   frontend handed over are each refused by both oracles. *)
let test_foreign_index_refused () =
  let elf = islands_input ~seed:31 ~pool_kb:1 ~islands:true in
  let holes = Codegen.holes elf in
  let r =
    Rewriter.run ~holes elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  let out = r.Rewriter.output in
  let both what index =
    refused ("static, " ^ what) (fun () ->
        Static.verify ~holes ~index ~original:elf out);
    refused ("trace, " ^ what) (fun () ->
        Trace.compare_runs ~holes ~index ~original:elf out)
  in
  check_bool "the rewrite's own index is accepted" true
    (Result.is_ok (Static.verify ~holes ~index:r.Rewriter.index ~original:elf out)
    && Result.is_ok
         (Trace.compare_runs ~holes ~index:r.Rewriter.index ~original:elf out));
  both "other holes" (Frontend.index elf);
  let text = Option.get (Frontend.find_text elf) in
  let cut =
    Frontend.index ~holes
      ~fault:
        (E9_fault.Fault.create
           (E9_fault.Fault.parse
              (Printf.sprintf "decode@%d" (text.Frontend.size / 2))))
      elf
  in
  check_bool "the cut index records no holes" true
    (Frontend.swept_holes cut = None);
  both "cut by a decode fault" cut;
  let _, sites = Frontend.disassemble ~holes elf in
  both "built from sites"
    (Frontend.index_of_sites text (E9_bits.Buf.raw elf.Elf_file.data) sites)

(* With the rewrite's own index both oracles return what they return
   after sweeping the original themselves, and the trace filter's
   boundaries are the sweep's starts outside the instrumentation
   ranges: over generated inputs with a leading pool and islands. *)
let prop_oracles_read_the_index =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 10_000) (int_range 0 2) bool
        (pair bool (opt (pair (int_range 0 6000) (int_range 1 400)))))
  in
  QCheck2.Test.make ~name:"oracles: the rewrite's index = their own sweep"
    ~count:12 gen (fun (seed, pool_kb, islands, (writes, range)) ->
      let elf = islands_input ~seed ~pool_kb ~islands in
      let holes = Codegen.holes elf in
      let select =
        if writes then Frontend.select_heap_writes else Frontend.select_jumps
      in
      let r =
        Rewriter.run ~holes elf ~select ~template:(fun _ -> Trampoline.Empty)
      in
      let out = r.Rewriter.output and index = r.Rewriter.index in
      let text = Option.get (Frontend.find_text elf) in
      let base = text.Frontend.base in
      let instr_ranges =
        match range with
        | None -> []
        | Some (off, len) -> [ (base + off, base + off + len) ]
      in
      let starts = Hashtbl.create 4096 in
      List.iter
        (fun (s : Frontend.site) -> Hashtbl.replace starts s.Frontend.addr ())
        (snd (Frontend.disassemble ~holes elf));
      let boundary = Trace.boundary ~index ~instr_ranges ~original:elf in
      let in_ranges a =
        List.exists (fun (lo, hi) -> a >= lo && a < hi) instr_ranges
      in
      let rec same a =
        a >= base + text.Frontend.size + 8
        || boundary a = (Hashtbl.mem starts a && not (in_ranges a))
           && same (a + 1)
      in
      Static.verify ~index ~original:elf out
      = Static.verify ~holes ~original:elf out
      && Trace.compare_runs ~index ~original:elf out
         = Trace.compare_runs ~holes ~original:elf out
      && same (base - 8))

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
        Alcotest.test_case "unreachable scratch store rejected" `Quick
          test_unreachable_scratch_rejected;
        Alcotest.test_case "displaced wild call verifies" `Quick
          test_displaced_wild_call_verifies;
        Alcotest.test_case "second short to one punned jump rejected" `Quick
          test_second_short_rejected;
        Alcotest.test_case "file round trip verifies" `Quick
          test_file_roundtrip_verifies;
        Alcotest.test_case "trampoline ending at its mapping's end verifies"
          `Quick test_tramp_ending_at_mapping_end_verifies;
        Alcotest.test_case "trampoline past its mapping's end rejected" `Quick
          test_tramp_past_mapping_end_rejected;
        QCheck_alcotest.to_alcotest prop_jump_start_filter;
        Alcotest.test_case "B0-degraded rewrite is trace-equivalent" `Quick
          test_b0_degraded_trace_equivalent;
        Alcotest.test_case "inject campaign deterministic" `Quick
          test_inject_campaign_deterministic;
        Alcotest.test_case "hash divergence names the first event" `Quick
          test_hash_divergence_named;
        Alcotest.test_case "end of trace on the side that ended" `Quick
          test_end_of_trace_orientation;
        Alcotest.test_case "oracles refuse a foreign index" `Quick
          test_foreign_index_refused;
        QCheck_alcotest.to_alcotest prop_oracles_read_the_index;
        QCheck_alcotest.to_alcotest prop_regs_hash;
        QCheck_alcotest.to_alcotest prop_fuzz;
        QCheck_alcotest.to_alcotest prop_inject ] ) ]
