(* Tests for the disassembler frontend: text location (section vs. segment
   fallback), the [?holes] sweep restriction and its [leading_hole] form,
   site geometry, and the two patch-location selectors. *)

module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Codegen = E9_workload.Codegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let elf () =
  Codegen.generate { Codegen.default_profile with Codegen.seed = 91L }

let test_find_text_prefers_section () =
  let elf = elf () in
  let text = Option.get (Frontend.find_text elf) in
  let sec = Option.get (Elf_file.find_section elf ".text") in
  check_int "base is .text addr" sec.Elf_file.addr text.Frontend.base;
  check_int "offset" sec.Elf_file.offset text.Frontend.offset;
  check_int "size" sec.Elf_file.size text.Frontend.size

(* Without a .text section, the first executable PT_LOAD stands in — the
   stripped-sections case the paper's threat model requires. *)
let test_find_text_segment_fallback () =
  let elf = elf () in
  let stripped =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections }
  in
  let text = Option.get (Frontend.find_text stripped) in
  let seg =
    List.find
      (fun (s : Elf_file.segment) ->
        s.Elf_file.ptype = Elf_file.Load && s.Elf_file.prot.Elf_file.x)
      stripped.Elf_file.segments
  in
  check_int "base is exec segment" seg.Elf_file.vaddr text.Frontend.base;
  check_int "size is filesz" seg.Elf_file.filesz text.Frontend.size

let test_find_text_none () =
  let elf = elf () in
  let none =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections;
      segments =
        List.map
          (fun (s : Elf_file.segment) ->
            { s with Elf_file.prot = Elf_file.prot_rw })
          elf.Elf_file.segments }
  in
  check_bool "no text found" true (Frontend.find_text none = None)

let test_disassemble_covers_text () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  check_bool "non-empty" true (sites <> []);
  let first = List.hd sites in
  check_int "starts at text base" text.Frontend.base first.Frontend.addr;
  let last_end =
    List.fold_left
      (fun pos (s : Frontend.site) ->
        check_int "contiguous" pos s.Frontend.addr;
        check_bool "positive length" true (s.Frontend.len > 0);
        pos + s.Frontend.len)
      text.Frontend.base sites
  in
  check_int "covers the whole text" (text.Frontend.base + text.Frontend.size)
    last_end

(* [leading_hole] is the §6.2 workaround: the sweep skips the data prefix,
   decodes nothing below the start, and the suffix matches a full sweep
   restarted at the same boundary. *)
let test_leading_hole () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  let from = (List.nth sites 4).Frontend.addr in
  let hole = Frontend.leading_hole elf from in
  check_bool "the hole is [base, from)" true
    (hole = (text.Frontend.base, from - text.Frontend.base));
  let _, suffix = Frontend.disassemble ~holes:[ hole ] elf in
  check_int "starts at from" from (List.hd suffix).Frontend.addr;
  check_bool "nothing decoded below from" true
    (List.for_all (fun (s : Frontend.site) -> s.Frontend.addr >= from) suffix);
  let expect =
    List.filter (fun (s : Frontend.site) -> s.Frontend.addr >= from) sites
  in
  check_bool "suffix of the full sweep" true (suffix = expect)

let test_leading_hole_outside () =
  let elf = elf () in
  let text = Option.get (Frontend.find_text elf) in
  let hi = text.Frontend.base + text.Frontend.size in
  List.iter
    (fun addr ->
      Alcotest.check_raises "start outside text"
        (Frontend.Error
           (Printf.sprintf
              "Frontend: disassembly start 0x%x outside the text [0x%x, 0x%x)"
              addr text.Frontend.base hi))
        (fun () -> ignore (Frontend.leading_hole elf addr)))
    [ text.Frontend.base - 1; hi ]

let test_disassemble_no_text_typed () =
  let elf = elf () in
  let no_text =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections;
      segments =
        List.map
          (fun (s : Elf_file.segment) -> { s with Elf_file.prot = Elf_file.prot_r })
          elf.Elf_file.segments }
  in
  match Frontend.disassemble no_text with
  | _ -> Alcotest.fail "expected Frontend.Error"
  | exception Frontend.Error _ -> ()

(* An injected decode fault truncates the site list at a text offset: the
   result is a strict prefix of the fault-free sweep (partial
   instrumentation, never desync), and a hole before the cut only drops
   its own sites from it. *)
let test_disassemble_decode_fault_prefix () =
  let module Fault = E9_fault.Fault in
  let elf = elf () in
  let text, full = Frontend.disassemble elf in
  let cut = text.Frontend.size / 2 in
  let fault = Fault.create (Fault.parse (Printf.sprintf "decode@%d" cut)) in
  let _, cut_sites = Frontend.disassemble ~fault elf in
  check_bool "strict prefix" true
    (List.length cut_sites < List.length full);
  List.iteri
    (fun i (s : Frontend.site) ->
      check_bool "prefix element matches" true (s = List.nth full i);
      check_bool "below the cut" true (s.Frontend.addr < text.Frontend.base + cut))
    cut_sites;
  check_int "fault recorded" 1 (Fault.fired fault Fault.Decode);
  let fault2 = Fault.create (Fault.parse (Printf.sprintf "decode@%d" cut)) in
  let lo = (List.nth full 3).Frontend.addr
  and hi = (List.nth full 6).Frontend.addr in
  let _, cut_holed =
    Frontend.disassemble ~holes:[ (lo, hi - lo) ] ~fault:fault2 elf
  in
  let outside (s : Frontend.site) =
    s.Frontend.addr < lo || s.Frontend.addr >= hi
  in
  check_bool "hole drops only its own sites" true
    (cut_holed = List.filter outside cut_sites)

(* [?holes] skips interior data extents and re-synchronizes at each
   hole's end; a hole that starts mid-instruction also drops the
   instruction that overran into it. A leading hole [base, addr) starts
   the sweep at [addr], and it combines with an interior hole. *)
let test_disassemble_holes () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  let base = text.Frontend.base in
  let addr i = (List.nth sites i).Frontend.addr in
  let lo = addr 10 and hi = addr 14 in
  let without ~lo ~hi =
    List.filter
      (fun (s : Frontend.site) -> s.Frontend.addr < lo || s.Frontend.addr >= hi)
  in
  let _, holed = Frontend.disassemble ~holes:[ (lo, hi - lo) ] elf in
  check_bool "aligned hole: the sweep minus the hole's sites" true
    (holed = without ~lo ~hi sites);
  (* A hole starting one byte into a multi-byte instruction below [hi]:
     that instruction's decode overruns into the hole, so the next
     position lies inside it and the sweep resumes at the hole's end. *)
  let wide =
    List.find
      (fun (s : Frontend.site) ->
        s.Frontend.len > 1 && s.Frontend.addr + s.Frontend.len < hi)
      sites
  in
  let mid = wide.Frontend.addr + 1 in
  let _, overrun = Frontend.disassemble ~holes:[ (mid, hi - mid) ] elf in
  check_bool "overrun: the sweep minus the hole's sites" true
    (overrun = without ~lo:(wide.Frontend.addr + wide.Frontend.len) ~hi sites);
  let _, leading =
    Frontend.disassemble ~holes:[ Frontend.leading_hole elf hi ] elf
  in
  check_bool "a leading hole: the sweep from its end" true
    (leading = without ~lo:base ~hi sites);
  let _, both =
    Frontend.disassemble
      ~holes:[ Frontend.leading_hole elf lo; (lo, hi - lo) ]
      elf
  in
  check_bool "two holes combine" true (both = leading)

let test_disassemble_empty_text () =
  let elf = elf () in
  let empty =
    { elf with
      Elf_file.sections =
        List.map
          (fun (s : Elf_file.section) ->
            if s.Elf_file.name = ".text" then { s with Elf_file.size = 0 }
            else s)
          elf.Elf_file.sections }
  in
  let text, sites = Frontend.disassemble empty in
  check_int "empty text" 0 text.Frontend.size;
  check_bool "no sites" true (sites = [])

let site insn = { Frontend.addr = 0x401000; len = 5; insn }

let test_select_jumps () =
  check_bool "jmp" true (Frontend.select_jumps (site (Insn.Jmp 10)));
  check_bool "jmp short" true
    (Frontend.select_jumps (site (Insn.Jmp_short 3)));
  check_bool "jcc" true (Frontend.select_jumps (site (Insn.Jcc (Insn.NE, 8))));
  check_bool "indirect jmp" true
    (Frontend.select_jumps (site (Insn.Jmp_ind (Insn.Reg Reg.RAX))));
  check_bool "call is not a jump" false
    (Frontend.select_jumps (site (Insn.Call 10)));
  check_bool "ret is not a jump" false (Frontend.select_jumps (site Insn.Ret));
  check_bool "mov is not a jump" false
    (Frontend.select_jumps
       (site (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1))))

let test_select_heap_writes () =
  let store base =
    Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base ()), Insn.Reg Reg.RDX)
  in
  check_bool "store through rdi" true
    (Frontend.select_heap_writes (site (store Reg.RDI)));
  check_bool "stack store excluded" false
    (Frontend.select_heap_writes (site (store Reg.RSP)));
  check_bool "load is not a write" false
    (Frontend.select_heap_writes
       (site (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Mem (Insn.mem ~base:Reg.RDI ())))));
  check_bool "jump is not a write" false
    (Frontend.select_heap_writes (site (Insn.Jmp 10)))

let suites =
  [ ( "frontend",
      [ Alcotest.test_case "find_text prefers .text" `Quick
          test_find_text_prefers_section;
        Alcotest.test_case "find_text segment fallback" `Quick
          test_find_text_segment_fallback;
        Alcotest.test_case "find_text none" `Quick test_find_text_none;
        Alcotest.test_case "disassembly covers the text" `Quick
          test_disassemble_covers_text;
        Alcotest.test_case "leading_hole restricts the sweep" `Quick
          test_leading_hole;
        Alcotest.test_case "leading_hole outside text rejected" `Quick
          test_leading_hole_outside;
        Alcotest.test_case "no text is a typed error" `Quick
          test_disassemble_no_text_typed;
        Alcotest.test_case "decode fault truncates to a prefix" `Quick
          test_disassemble_decode_fault_prefix;
        Alcotest.test_case "holes are skipped, sweep resyncs" `Quick
          test_disassemble_holes;
        Alcotest.test_case "empty text" `Quick test_disassemble_empty_text;
        Alcotest.test_case "select_jumps" `Quick test_select_jumps;
        Alcotest.test_case "select_heap_writes" `Quick test_select_heap_writes
      ] ) ]
