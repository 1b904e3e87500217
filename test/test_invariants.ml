(* Static invariants of rewritten binaries — checks on the output file
   itself, independent of execution. These encode the §2 contract: every
   instruction is preserved, replaced by an equivalent, or patched; nothing
   else changes; appended data never collides with the original image. *)

module Buf = E9_bits.Buf
module Insn = E9_x86.Insn
module Decode = E9_x86.Decode
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Codegen = E9_workload.Codegen
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu

module Static = E9_check.Static

let check_bool = Alcotest.(check bool)

let profile seed =
  { Codegen.default_profile with
    Codegen.seed; functions = 50; iterations = 60 }

let text_bytes elf =
  let text = Option.get (Frontend.find_text elf) in
  (text, Buf.sub elf.Elf_file.data ~pos:text.Frontend.offset ~len:text.Frontend.size)

let rewrite_a1 elf =
  Rewriter.run elf ~select:Frontend.select_jumps
    ~template:(fun _ -> Trampoline.Empty)

(* Invariant 1: in-place discipline — every changed text byte lies within
   the influence radius of some patched site (its own bytes, a punned
   jump's overhang, or a T3 victim within short-jump range). *)
let test_changes_are_local () =
  let elf = Codegen.generate (profile 11L) in
  let _, before = text_bytes elf in
  let r = rewrite_a1 elf in
  let text, after = text_bytes r.Rewriter.output in
  let sites = List.map fst r.Rewriter.patched_sites in
  (* influence radius: J_short reach (2+127) + a punned jump (5+4 prefixes
     + 4 displacement bytes) *)
  let radius = 2 + 127 + 13 in
  for i = 0 to Bytes.length before - 1 do
    if Bytes.get before i <> Bytes.get after i then begin
      let addr = text.Frontend.base + i in
      if
        not
          (List.exists (fun s -> addr >= s && addr < s + radius) sites)
      then
        Alcotest.failf "byte at 0x%x changed outside any patch's influence"
          addr
    end
  done

(* Invariant 2: every successfully patched site now decodes to a diversion:
   a (possibly prefixed) jump, a short jump, or an int3 trap. *)
let test_patched_sites_are_jumps () =
  let elf = Codegen.generate (profile 12L) in
  let r = rewrite_a1 elf in
  let text, after = text_bytes r.Rewriter.output in
  List.iter
    (fun (addr, _) ->
      let d = Decode.decode after (addr - text.Frontend.base) in
      match d.Decode.insn with
      | Insn.Jmp _ | Insn.Jmp_short _ | Insn.Int3 -> ()
      | i ->
          Alcotest.failf "patched site 0x%x decodes to %s" addr
            (Insn.to_string i))
    r.Rewriter.patched_sites

(* Invariant 3: the loader's mappings never cover pages of the original
   image, and always reference bytes inside the output file. *)
let test_mappings_disjoint_and_in_file () =
  let elf = Codegen.generate (profile 13L) in
  let r = rewrite_a1 elf in
  let out = r.Rewriter.output in
  let file_len = Buf.length out.Elf_file.data in
  match Elf_file.find_section out Elf_file.mmap_section_name with
  | None -> Alcotest.fail "no mapping section"
  | Some sec ->
      let mappings = Loadmap.decode_mappings (Elf_file.section_bytes out sec) in
      check_bool "has mappings" true (mappings <> []);
      List.iter
        (fun (m : Loadmap.mapping) ->
          check_bool "file range valid" true
            (m.Loadmap.file_off >= 0 && m.Loadmap.file_off + m.Loadmap.len <= file_len);
          List.iter
            (fun (seg : Elf_file.segment) ->
              if seg.Elf_file.ptype = Elf_file.Load then begin
                let seg_lo = seg.Elf_file.vaddr / 4096 * 4096 in
                let seg_hi = (seg.Elf_file.vaddr + seg.Elf_file.memsz + 4095) / 4096 * 4096 in
                if m.Loadmap.vaddr < seg_hi && m.Loadmap.vaddr + m.Loadmap.len > seg_lo
                then
                  Alcotest.failf "mapping 0x%x+%d overlaps segment at 0x%x"
                    m.Loadmap.vaddr m.Loadmap.len seg.Elf_file.vaddr
              end)
            out.Elf_file.segments)
        mappings

(* Invariant 4: output determinism — same input, same options, identical
   output bytes. *)
let test_rewriting_deterministic () =
  let elf = Codegen.generate (profile 14L) in
  let a = Elf_file.to_bytes (rewrite_a1 elf).Rewriter.output in
  let b = Elf_file.to_bytes (rewrite_a1 elf).Rewriter.output in
  check_bool "identical outputs" true (Bytes.equal a b)

(* Invariant 5: the output survives a file round trip. *)
let test_output_file_roundtrip () =
  let elf = Codegen.generate (profile 15L) in
  let orig = Machine.run elf in
  let r = rewrite_a1 elf in
  let reparsed = Elf_file.of_bytes (Elf_file.to_bytes r.Rewriter.output) in
  check_bool "reparsed output equivalent" true
    (Machine.equivalent orig (Machine.run reparsed))

(* Invariant 6: mixing templates across applications in one pass. *)
let test_mixed_templates () =
  let elf = Codegen.generate (profile 16L) in
  let orig = Machine.run ~make_allocator:E9_lowfat.Lowfat.make_allocator elf in
  let module Spec = E9_spec.Patchspec in
  let r =
    (E9_tool.Tool.run elf
       [ { Spec.selector = Spec.Heap_writes; patch = Spec.Lowfat };
         { Spec.selector = Spec.Jumps; patch = Spec.Count } ])
      .E9_tool.Tool.rewrite
  in
  let patched =
    Machine.run ~make_allocator:E9_lowfat.Lowfat.make_allocator
      r.Rewriter.output
  in
  check_bool "equivalent" true (Machine.equivalent orig patched);
  check_bool "no violations" true (patched.Cpu.violations = 0);
  check_bool "counters fired" true (patched.Cpu.counters <> [])

(* Invariant 7: trampolines collected by the rewriter are mutually
   disjoint in the virtual address space. *)
let test_trampolines_disjoint () =
  let elf = Codegen.generate (profile 17L) in
  let r = rewrite_a1 elf in
  let out = r.Rewriter.output in
  match Elf_file.find_section out Elf_file.mmap_section_name with
  | None -> Alcotest.fail "no mapping section"
  | Some sec ->
      let ms = Loadmap.decode_mappings (Elf_file.section_bytes out sec) in
      let sorted =
        List.sort (fun (a : Loadmap.mapping) b -> compare a.Loadmap.vaddr b.Loadmap.vaddr) ms
      in
      let rec go = function
        | (a : Loadmap.mapping) :: (b :: _ as rest) ->
            if a.Loadmap.vaddr + a.Loadmap.len > b.Loadmap.vaddr then
              Alcotest.failf "mappings overlap at 0x%x" b.Loadmap.vaddr;
            go rest
        | _ -> ()
      in
      go sorted

(* Invariant 8: the E9_check static verifier independently accounts for
   every changed byte. Cross-checks the hand-rolled invariants above: its
   diff agrees with a direct byte diff, every changed byte is classified,
   and every patched site anchors a classified diversion nearby. *)
let test_static_verifier_cross_check () =
  List.iter
    (fun seed ->
      let elf = Codegen.generate (profile seed) in
      let _, before = text_bytes elf in
      let r = rewrite_a1 elf in
      let text, after = text_bytes r.Rewriter.output in
      match Static.verify ~original:elf r.Rewriter.output with
      | Error e ->
          Alcotest.failf "seed %Ld: verifier rejected: %s" seed
            (Format.asprintf "%a" Static.pp_error e)
      | Ok report ->
          let manual = ref 0 in
          Bytes.iteri
            (fun i b -> if Bytes.get after i <> b then incr manual)
            before;
          Alcotest.(check int) "diff agrees" !manual report.Static.changed_bytes;
          Alcotest.(check int) "every changed byte classified" !manual
            (List.length report.Static.classified);
          check_bool "trampolines checked" true
            (report.Static.trampolines_checked > 0);
          (* Each patched site changed at least one byte within its own
             influence radius (prefixes + jump + displacement). *)
          List.iter
            (fun (addr, _) ->
              if addr >= text.Frontend.base then
                check_bool
                  (Printf.sprintf "site 0x%x anchors a classified byte" addr)
                  true
                  (List.exists
                     (fun (a, _) -> a >= addr && a < addr + 13)
                     report.Static.classified))
            r.Rewriter.patched_sites)
    [ 21L; 22L; 23L ]

let suites =
  [ ( "invariants",
      [ Alcotest.test_case "changes are local" `Quick test_changes_are_local;
        Alcotest.test_case "patched sites decode to jumps" `Quick
          test_patched_sites_are_jumps;
        Alcotest.test_case "mappings disjoint from image" `Quick
          test_mappings_disjoint_and_in_file;
        Alcotest.test_case "rewriting deterministic" `Quick
          test_rewriting_deterministic;
        Alcotest.test_case "output file roundtrip" `Quick
          test_output_file_roundtrip;
        Alcotest.test_case "mixed templates" `Quick test_mixed_templates;
        Alcotest.test_case "mappings non-overlapping" `Quick
          test_trampolines_disjoint;
        Alcotest.test_case "static verifier cross-check" `Quick
          test_static_verifier_cross_check ] ) ]
