(* Tests for the low-fat pointer allocator and the heap-write hardening
   application built on it (paper §6.3). *)

module Lowfat = E9_lowfat.Lowfat
module Space = E9_vm.Space
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Hostcall = E9_emu.Hostcall
module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Tool = E9_tool.Tool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () =
  let space = Space.create () in
  Lowfat.create space

(* ------------------------------------------------------------------ *)
(* Pointer arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_base_is_pure () =
  let t = fresh () in
  let p = Lowfat.malloc t 100 in
  check_bool "is lowfat" true (Lowfat.is_lowfat p);
  check_int "object sits after the redzone" Lowfat.redzone (p - Lowfat.base p);
  (* base is recomputed from the pointer alone, also for interior ones *)
  check_int "interior pointer same base" (Lowfat.base p) (Lowfat.base (p + 50))

let test_slot_size_classes () =
  let t = fresh () in
  (* 1 byte + 16-byte redzone needs the 32-byte class. *)
  let p1 = Lowfat.malloc t 1 in
  check_bool "smallest fitting class" true (Lowfat.slot_size p1 = Some 32);
  let p2 = Lowfat.malloc t 100 in
  (* 100 + 16 redzone -> 128-byte class *)
  check_bool "128 class" true (Lowfat.slot_size p2 = Some 128);
  let p3 = Lowfat.malloc t 112 in
  check_bool "exactly fits 128" true (Lowfat.slot_size p3 = Some 128);
  let p4 = Lowfat.malloc t 113 in
  check_bool "needs 256" true (Lowfat.slot_size p4 = Some 256)

let test_legacy_pointers_pass () =
  check_bool "stack pointer" true (Lowfat.check 0x7fff_0000_0000);
  check_bool "null-ish" true (Lowfat.check 16);
  check_bool "text" true (Lowfat.check 0x400000);
  check_bool "not lowfat" false (Lowfat.is_lowfat 0x400000)

let test_redzone_check () =
  let t = fresh () in
  let p = Lowfat.malloc t 64 in
  check_bool "object start ok" true (Lowfat.check p);
  check_bool "interior ok" true (Lowfat.check (p + 63));
  (* The slot is 128 wide with a 16-byte redzone at its base: running off
     the end of this object lands in the *next* slot's redzone. *)
  let slot = Lowfat.base p in
  check_bool "own redzone rejected" false (Lowfat.check slot);
  check_bool "next slot's redzone rejected" false (Lowfat.check (slot + 128));
  check_bool "last redzone byte rejected" false
    (Lowfat.check (slot + 128 + Lowfat.redzone - 1));
  check_bool "next object ok" true
    (Lowfat.check (slot + 128 + Lowfat.redzone))

let test_overflow_detected_at_object_end () =
  let t = fresh () in
  let p = Lowfat.malloc t 112 in
  (* usable size = 112 (slot 128 - redzone 16): one past the end is the
     next slot's redzone. *)
  check_bool "last byte ok" true (Lowfat.check (p + 111));
  check_bool "one past end detected" false (Lowfat.check (p + 112))

let test_malloc_distinct_and_mapped () =
  let space = Space.create () in
  let t = Lowfat.create space in
  let ptrs = List.init 50 (fun i -> Lowfat.malloc t (i * 7 + 1)) in
  let sorted = List.sort_uniq compare ptrs in
  check_int "all distinct" 50 (List.length sorted);
  (* memory is mapped r/w *)
  List.iter
    (fun p ->
      Space.write_u64 space p 0xdead;
      check_int "readable" 0xdead (Space.read_u64 space p))
    ptrs

let test_free_recycles () =
  let t = fresh () in
  let p = Lowfat.malloc t 64 in
  Lowfat.free t p;
  let q = Lowfat.malloc t 64 in
  check_int "slot recycled" p q

let test_free_legacy_ignored () =
  let t = fresh () in
  Lowfat.free t 0x400000 (* must not raise *)

let test_malloc_too_big () =
  let t = fresh () in
  Alcotest.check_raises "too big"
    (Lowfat.Error
       (Printf.sprintf "Lowfat.malloc: %d exceeds max size %d" Lowfat.max_size
          Lowfat.max_size))
    (fun () -> ignore (Lowfat.malloc t Lowfat.max_size))

let test_malloc_exhaustion_typed_and_recoverable () =
  let t = fresh () in
  (* Drain the largest size class; exhaustion must be a typed error
     raised *before* any allocator state changes. *)
  let slot = Option.get (Lowfat.slot_size (Lowfat.malloc t (Lowfat.max_size / 2))) in
  let slots = Lowfat.region_size / slot in
  for _ = 2 to slots do
    ignore (Lowfat.malloc t (Lowfat.max_size / 2))
  done;
  (match Lowfat.malloc t (Lowfat.max_size / 2) with
  | _ -> Alcotest.fail "expected Lowfat.Error"
  | exception Lowfat.Error m ->
      check_bool "message names the class" true
        (String.length m > 0 && String.sub m 0 13 = "Lowfat.malloc"));
  (* The refusal left the allocator intact: other classes still serve,
     and a freed slot from the full class is immediately reusable. *)
  let small = Lowfat.malloc t 16 in
  check_bool "small class unaffected" true (Lowfat.check small);
  let p = Lowfat.malloc t 16 in
  Lowfat.free t p;
  check_int "free list recycles after refusal" p (Lowfat.malloc t 16)

(* Property: for any allocation size, every byte of the usable object
   passes the check and the byte one past the end fails it. *)
let prop_redzone_tight =
  QCheck.Test.make ~name:"redzone property tight at object bounds" ~count:200
    QCheck.(int_range 1 5000)
    (fun n ->
      let t = fresh () in
      let p = Lowfat.malloc t n in
      let slot = Option.get (Lowfat.slot_size p) in
      let usable = slot - Lowfat.redzone in
      Lowfat.check p
      && Lowfat.check (p + usable - 1)
      && not (Lowfat.check (p + usable)))

(* ------------------------------------------------------------------ *)
(* End-to-end hardening                                                *)
(* ------------------------------------------------------------------ *)

(* The check parks %rdi in the injected runtime's scratch slot, so the
   rewrite input is the augmented image. *)
let harden elf =
  (Tool.run elf [ Tool.rule_of ~m:"heap-writes" ~p:"lowfat" () ]).Tool.rewrite

let test_hardened_clean_program_unchanged () =
  let prof =
    { Codegen.default_profile with Codegen.seed = 77L; functions = 40;
      iterations = 80 }
  in
  let elf = Codegen.generate prof in
  let orig = Machine.run ~make_allocator:Lowfat.make_allocator elf in
  let r = harden elf in
  let patched =
    Machine.run ~make_allocator:Lowfat.make_allocator r.Rewriter.output
  in
  check_bool "no false positives" true (patched.Cpu.violations = 0);
  check_bool "equivalent" true (Machine.equivalent orig patched);
  check_bool "hardening costs cycles" true
    (patched.Cpu.cycles > orig.Cpu.cycles)

(* A hand-written vulnerable program: writes one element past a 64-byte
   buffer. Undetectable without instrumentation; caught when hardened. *)
let overflow_elf () =
  let base = 0x400000 in
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 64));
  Asm.ins asm (Insn.Int Hostcall.malloc);
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  (* in-bounds writes *)
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Imm 1));
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:40 ()), Insn.Imm 2));
  (* the off-by-N overflow: element 48 + 64 = slot end + redzone *)
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:112 ()), Insn.Imm 3));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 0));
  Asm.ins asm Insn.Syscall;
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load;
        prot = Elf_file.prot_rx;
        vaddr = base;
        offset = 0;
        filesz = 0;
        memsz = Bytes.length code;
        align = 4096 }
      ~content:code
  in
  elf.Elf_file.sections <-
    [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6; addr = base;
        offset = off; size = Bytes.length code } ];
  elf

let test_overflow_undetected_without_hardening () =
  let elf = overflow_elf () in
  let r = Machine.run ~make_allocator:Lowfat.make_allocator elf in
  (* The overflow silently corrupts the neighbouring redzone. *)
  check_bool "runs to completion" true (r.Cpu.outcome = Cpu.Exited 0);
  check_int "no violations seen" 0 r.Cpu.violations

let test_overflow_detected_with_hardening () =
  let elf = overflow_elf () in
  let r = harden elf in
  check_bool "all writes patched" true
    (E9_core.Stats.succ_pct r.Rewriter.stats = 100.0);
  let hardened =
    Machine.run ~make_allocator:Lowfat.make_allocator r.Rewriter.output
  in
  match hardened.Cpu.outcome with
  | Cpu.Violation p ->
      (* the violating pointer is the 64-byte slot boundary overflow *)
      check_bool "pointer is low-fat" true (Lowfat.is_lowfat p);
      check_bool "pointer in a redzone" true (not (Lowfat.check p))
  | o ->
      Alcotest.failf "expected violation, got %s"
        (match o with
        | Cpu.Exited n -> Printf.sprintf "exit %d" n
        | Cpu.Fault (_, m) -> "fault: " ^ m
        | Cpu.Out_of_fuel -> "fuel"
        | Cpu.Violation _ -> assert false)

let test_hardening_count_mode () =
  (* abort_on_violation = false: count violations and keep going. *)
  let elf = overflow_elf () in
  let r = harden elf in
  let config = { Cpu.default_config with Cpu.abort_on_violation = false } in
  let hardened =
    Machine.run ~config ~make_allocator:Lowfat.make_allocator r.Rewriter.output
  in
  check_bool "completed" true (hardened.Cpu.outcome = Cpu.Exited 0);
  check_int "one violation counted" 1 hardened.Cpu.violations

let suites =
  [ ( "lowfat.pointer",
      [ Alcotest.test_case "base is pure" `Quick test_base_is_pure;
        Alcotest.test_case "size classes" `Quick test_slot_size_classes;
        Alcotest.test_case "legacy pointers pass" `Quick
          test_legacy_pointers_pass;
        Alcotest.test_case "redzone check" `Quick test_redzone_check;
        Alcotest.test_case "overflow at object end" `Quick
          test_overflow_detected_at_object_end;
        Alcotest.test_case "malloc distinct+mapped" `Quick
          test_malloc_distinct_and_mapped;
        Alcotest.test_case "free recycles" `Quick test_free_recycles;
        Alcotest.test_case "free legacy ignored" `Quick test_free_legacy_ignored;
        Alcotest.test_case "malloc too big" `Quick test_malloc_too_big;
        Alcotest.test_case "exhaustion typed and recoverable" `Quick
          test_malloc_exhaustion_typed_and_recoverable;
        QCheck_alcotest.to_alcotest prop_redzone_tight ] );
    ( "lowfat.hardening",
      [ Alcotest.test_case "clean program unchanged" `Quick
          test_hardened_clean_program_unchanged;
        Alcotest.test_case "overflow silent unhardened" `Quick
          test_overflow_undetected_without_hardening;
        Alcotest.test_case "overflow detected hardened" `Quick
          test_overflow_detected_with_hardening;
        Alcotest.test_case "count mode" `Quick test_hardening_count_mode ] ) ]

(* Property: for a random allocation and a random write offset, hardening
   flags the write iff it lands in a redzone — no false positives inside
   the object, no false negatives in the adjacent redzone. *)
let prop_hardening_detects_exactly_redzones =
  QCheck.Test.make ~name:"hardening flags exactly the redzone writes"
    ~count:60
    QCheck.(pair (int_range 1 200) (int_range 0 260))
    (fun (size, offset) ->
      let base_addr = 0x400000 in
      let asm = Asm.create ~base:base_addr in
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm size));
      Asm.ins asm (Insn.Int Hostcall.malloc);
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
      Asm.ins asm
        (Insn.Mov
           (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:offset ()), Insn.Imm 7));
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 0));
      Asm.ins asm Insn.Syscall;
      let code = Asm.assemble asm in
      let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base_addr in
      let off =
        Elf_file.add_segment elf
          { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx;
            vaddr = base_addr; offset = 0; filesz = 0;
            memsz = Bytes.length code; align = 4096 }
          ~content:code
      in
      elf.Elf_file.sections <-
        [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6;
            addr = base_addr; offset = off; size = Bytes.length code } ];
      let r = harden elf in
      let hardened =
        Machine.run ~make_allocator:Lowfat.make_allocator r.Rewriter.output
      in
      (* What should happen, from the pointer arithmetic alone: the object
         starts redzone bytes into its slot; the write hits a redzone iff
         (p+offset) - base(p+offset) < redzone. *)
      let space = E9_vm.Space.create () in
      let t = Lowfat.create space in
      let p = Lowfat.malloc t size in
      let should_flag = not (Lowfat.check (p + offset)) in
      match hardened.Cpu.outcome with
      | Cpu.Violation _ -> should_flag
      | Cpu.Exited 0 -> not should_flag
      | _ -> false)

let suites =
  suites
  @ [ ( "lowfat.property",
        [ QCheck_alcotest.to_alcotest prop_hardening_detects_exactly_redzones ]
      ) ]
