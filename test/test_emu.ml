(* Tests for the VM and the x86 subset emulator: whole programs assembled
   with Asm, packed into ELF images, loaded, and executed. *)

module Space = E9_vm.Space
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Hostcall = E9_emu.Hostcall

let base = 0x400000

(* Wrap assembled code (and optional extra segments/sections) in an ELF. *)
let elf_of_asm ?(extra = fun _ -> ()) asm =
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rx;
         vaddr = base;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  extra elf;
  elf

let exit_with asm code =
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm code));
  Asm.ins asm Insn.Syscall

(* Exit with the low byte of RBX as status. *)
let exit_rbx asm =
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg Reg.RBX));
  Asm.ins asm Insn.Syscall

let run_elf ?config ?make_allocator elf = Machine.run ?config ?make_allocator elf

let check_exit expect (r : Cpu.result) =
  match r.Cpu.outcome with
  | Cpu.Exited n -> Alcotest.(check int) "exit code" expect n
  | Cpu.Fault (a, m) -> Alcotest.failf "fault at 0x%x: %s" a m
  | Cpu.Violation p -> Alcotest.failf "violation at 0x%x" p
  | Cpu.Out_of_fuel -> Alcotest.fail "out of fuel"

(* ------------------------------------------------------------------ *)
(* Space                                                               *)
(* ------------------------------------------------------------------ *)

let test_space_rw () =
  let s = Space.create () in
  Space.map_zero s ~vaddr:0x1000 ~len:8192 ~prot:Elf_file.prot_rw;
  Space.write_u64 s 0x1500 0x123456789abc;
  Alcotest.(check int) "u64" 0x123456789abc (Space.read_u64 s 0x1500);
  Space.write_u32 s 0x1ffe 0xdeadbeef;
  (* crosses page boundary *)
  Alcotest.(check int) "u32 across pages" 0xdeadbeef (Space.read_u32 s 0x1ffe)

let test_space_prot () =
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x1000 ~prot:Elf_file.prot_rx
    (Bytes.of_string "\x90");
  Alcotest.(check bool) "exec readable" true (Space.read_u8 s 0x1000 = 0x90);
  (try
     Space.write_u8 s 0x1000 0;
     Alcotest.fail "write to rx page should fault"
   with Space.Fault (_, _) -> ());
  try
    ignore (Space.read_u8 s 0x9999999);
    Alcotest.fail "unmapped read should fault"
  with Space.Fault (_, _) -> ()

let test_space_overmap () =
  (* MAP_FIXED semantics: later mapping replaces earlier content. *)
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x1000 ~prot:Elf_file.prot_rw (Bytes.of_string "aa");
  Space.map_bytes s ~vaddr:0x1000 ~prot:Elf_file.prot_rw (Bytes.of_string "b");
  Alcotest.(check int) "replaced" (Char.code 'b') (Space.read_u8 s 0x1000);
  Alcotest.(check int) "tail kept" (Char.code 'a') (Space.read_u8 s 0x1001)

let test_space_one_to_many () =
  (* The same content can back several virtual ranges (page grouping). *)
  let s = Space.create () in
  let content = Bytes.of_string "shared" in
  Space.map_bytes s ~vaddr:0x10000 ~prot:Elf_file.prot_rx content;
  Space.map_bytes s ~vaddr:0x20000 ~prot:Elf_file.prot_rx content;
  Alcotest.(check int) "copy 1" (Char.code 's') (Space.read_u8 s 0x10000);
  Alcotest.(check int) "copy 2" (Char.code 's') (Space.read_u8 s 0x20000)

let test_space_fetch_window_truncates () =
  (* A window that runs off the end of executable memory is truncated, not
     a fault: the decoder sees only the fetchable bytes. *)
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x1000 ~prot:Elf_file.prot_rx
    (Bytes.make 4096 '\x90');
  Space.map_zero s ~vaddr:0x2000 ~len:4096 ~prot:Elf_file.prot_rw;
  Alcotest.(check int) "truncated at non-exec page" 8
    (Bytes.length (Space.fetch_window s 0x1ff8));
  Alcotest.(check int) "full window inside page" 16
    (Bytes.length (Space.fetch_window s 0x1800));
  (* The first byte being unfetchable is still a fault. *)
  try
    ignore (Space.fetch_window s 0x2000);
    Alcotest.fail "fetch from non-exec page should fault"
  with Space.Fault (_, _) -> ()

let test_space_map_zero_newest_wins () =
  (* Two overlapping lazy zero regions (each > 16 pages, so neither is
     materialized eagerly): the newer mapping's protection governs the
     overlap. *)
  let s = Space.create () in
  Space.map_zero s ~vaddr:0x100000 ~len:0x20000 ~prot:Elf_file.prot_r;
  Space.map_zero s ~vaddr:0x110000 ~len:0x20000 ~prot:Elf_file.prot_rw;
  Space.write_u8 s 0x118000 7;
  Alcotest.(check int) "overlap is writable (newest wins)" 7
    (Space.read_u8 s 0x118000);
  Alcotest.(check int) "older region reads zero" 0 (Space.read_u8 s 0x108000);
  try
    Space.write_u8 s 0x108000 1;
    Alcotest.fail "older read-only region accepted a write"
  with Space.Fault (_, _) -> ()

let test_space_last_page_cache_map_zero () =
  (* A read primes the one-entry page cache; map_zero over the same page
     must not leave the cached handle serving stale bytes. *)
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x3000 ~prot:Elf_file.prot_rw
    (Bytes.of_string "abcdef");
  Alcotest.(check int) "before" (Char.code 'c') (Space.read_u8 s 0x3002);
  Space.map_zero s ~vaddr:0x3000 ~len:4096 ~prot:Elf_file.prot_rw;
  Alcotest.(check int) "zeroed" 0 (Space.read_u8 s 0x3002);
  Space.map_bytes s ~vaddr:0x3000 ~prot:Elf_file.prot_rw
    (Bytes.of_string "XY");
  Alcotest.(check int) "remapped" (Char.code 'Y') (Space.read_u8 s 0x3001)

let test_space_shared_alias_privatizes () =
  (* Full-page read-only mappings of the same source alias one host page;
     remapping or zeroing one alias must not disturb the others. *)
  let s = Space.create () in
  let content = Bytes.make 4096 'A' in
  Space.map_bytes s ~vaddr:0x10000 ~prot:Elf_file.prot_rx content;
  Space.map_bytes s ~vaddr:0x20000 ~prot:Elf_file.prot_rx content;
  Space.map_bytes s ~vaddr:0x30000 ~prot:Elf_file.prot_rx content;
  Alcotest.(check int) "alias reads" (Char.code 'A') (Space.read_u8 s 0x20000);
  Space.map_bytes s ~vaddr:0x20000 ~prot:Elf_file.prot_rw content;
  Space.write_u8 s 0x20000 (Char.code 'B');
  Alcotest.(check int) "written alias" (Char.code 'B')
    (Space.read_u8 s 0x20000);
  Alcotest.(check int) "sibling untouched by write" (Char.code 'A')
    (Space.read_u8 s 0x10000);
  Space.map_zero s ~vaddr:0x10000 ~len:4096 ~prot:Elf_file.prot_rw;
  Alcotest.(check int) "zeroed alias" 0 (Space.read_u8 s 0x10000);
  Alcotest.(check int) "sibling untouched by map_zero" (Char.code 'A')
    (Space.read_u8 s 0x30000)

(* ------------------------------------------------------------------ *)
(* Basic execution                                                     *)
(* ------------------------------------------------------------------ *)

let test_exit_code () =
  let asm = Asm.create ~base in
  exit_with asm 42;
  check_exit 42 (run_elf (elf_of_asm asm))

let test_write_syscall () =
  let asm = Asm.create ~base in
  let msg = Asm.fresh_label asm "msg" in
  (* write(1, msg, 5); exit(0) *)
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 1));
  Asm.lea_label asm Reg.RSI msg;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Imm 5));
  Asm.ins asm Insn.Syscall;
  exit_with asm 0;
  Asm.place asm msg;
  Asm.ins_raw asm "hello";
  let r = run_elf (elf_of_asm asm) in
  check_exit 0 r;
  Alcotest.(check string) "output" "hello" r.Cpu.output

let test_loop_sum () =
  (* Sum 1..10 into RBX via a conditional loop; exit with 55. *)
  let asm = Asm.create ~base in
  let loop = Asm.fresh_label asm "loop" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 1));
  Asm.place asm loop;
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RCX));
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 1));
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 10));
  Asm.jcc asm Insn.LE loop;
  exit_rbx asm;
  check_exit 55 (run_elf (elf_of_asm asm))

let test_call_ret () =
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  Asm.call asm f;
  Asm.call asm f;
  exit_rbx asm;
  Asm.place asm f;
  Asm.ins asm (Insn.Shift (Insn.Shl, Insn.Q, Insn.Reg Reg.RBX, 2));
  Asm.ins asm Insn.Ret;
  check_exit 16 (run_elf (elf_of_asm asm))

let test_push_pop () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 7));
  Asm.ins asm (Insn.Push Reg.RAX);
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 0));
  Asm.ins asm (Insn.Pop Reg.RBX);
  exit_rbx asm;
  check_exit 7 (run_elf (elf_of_asm asm))

let test_memory_ops () =
  (* Store through a pointer, add to memory, reload. *)
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Movabs (Reg.RDI, Int64.of_int (Machine.stack_top - 64)));
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 40));
  Asm.ins asm
    (Insn.Alu
       (Insn.Add, Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 2));
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Mem (Insn.mem ~base:Reg.RDI ())));
  exit_rbx asm;
  check_exit 42 (run_elf (elf_of_asm asm))

let test_sib_addressing () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Movabs (Reg.RDI, Int64.of_int (Machine.stack_top - 256)));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 3));
  (* mem[rdi + rcx*8 + 16] = 9; rbx = mem[rdi + rcx*8 + 16] *)
  Asm.ins asm
    (Insn.Mov
       ( Insn.Q,
         Insn.Mem (Insn.mem ~base:Reg.RDI ~index:(Reg.RCX, Insn.S8) ~disp:16 ()),
         Insn.Imm 9 ));
  Asm.ins asm
    (Insn.Mov
       ( Insn.Q,
         Insn.Reg Reg.RBX,
         Insn.Mem (Insn.mem ~base:Reg.RDI ~index:(Reg.RCX, Insn.S8) ~disp:16 ())
       ));
  exit_rbx asm;
  check_exit 9 (run_elf (elf_of_asm asm))

let test_indirect_jump_table () =
  (* A computed jump through a table in a data segment: the control-flow
     pattern that defeats static recovery. Select case 2 of 4. *)
  let asm = Asm.create ~base in
  let table = Asm.fresh_label asm "table" in
  let cases = Array.init 4 (fun i -> Asm.fresh_label asm (Printf.sprintf "case%d" i)) in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 2));
  Asm.lea_label asm Reg.RDX table;
  Asm.ins asm
    (Insn.Jmp_ind
       (Insn.Mem (Insn.mem ~base:Reg.RDX ~index:(Reg.RCX, Insn.S8) ())));
  Array.iteri
    (fun i l ->
      Asm.place asm l;
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm (10 + i)));
      exit_rbx asm)
    cases;
  (* Data: the table of absolute case addresses, embedded in the text
     segment (read access to the text segment is allowed). *)
  Asm.place asm table;
  let code_so_far = Asm.here asm in
  ignore code_so_far;
  Array.iter
    (fun (_ : Asm.label) -> Asm.ins_raw asm (String.make 8 '\000'))
    cases;
  (* Fill the table after assembly — two-phase: get addresses, patch. *)
  let code = Asm.assemble asm in
  let table_off = Asm.label_addr asm table - base in
  Array.iteri
    (fun i l ->
      let addr = Asm.label_addr asm cases.(i) in
      ignore l;
      Bytes.set_int64_le code (table_off + (8 * i)) (Int64.of_int addr))
    cases;
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = { Elf_file.r = true; w = false; x = true };
         vaddr = base;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  check_exit 12 (run_elf elf)

let test_flags_signed_unsigned () =
  (* cmp $-1, %rbx(=1): signed 1 > -1 (G), unsigned 1 < 0xff..ff (B). *)
  let asm = Asm.create ~base in
  let ok1 = Asm.fresh_label asm "ok1" in
  let ok2 = Asm.fresh_label asm "ok2" in
  let fail_ = Asm.fresh_label asm "fail" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RBX, Insn.Imm (-1)));
  Asm.jcc asm Insn.G ok1;
  Asm.jmp asm fail_;
  Asm.place asm ok1;
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RBX, Insn.Imm (-1)));
  Asm.jcc asm Insn.B_ ok2;
  Asm.jmp asm fail_;
  Asm.place asm ok2;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  exit_rbx asm;
  Asm.place asm fail_;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  exit_rbx asm;
  check_exit 0 (run_elf (elf_of_asm asm))

let test_32bit_zero_extend () =
  (* Writing a 32-bit register clears the upper half. *)
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Movabs (Reg.RBX, 0x1_0000_0007L));
  Asm.ins asm (Insn.Mov (Insn.L, Insn.Reg Reg.RBX, Insn.Reg Reg.RBX));
  (* rbx = 7 now; shifting right 32 must give 0 *)
  Asm.ins asm (Insn.Shift (Insn.Shr, Insn.Q, Insn.Reg Reg.RBX, 32));
  exit_rbx asm;
  check_exit 0 (run_elf (elf_of_asm asm))

let test_byte_ops () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Movabs (Reg.RBX, 0x1234L));
  (* bl += 0x40 -> 0x74; whole rbx must become 0x1274 -> exit 0x74 *)
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.B, Insn.Reg Reg.RBX, Insn.Imm 0x40));
  exit_rbx asm;
  check_exit 0x74 (run_elf (elf_of_asm asm))

let test_setcc_cmov () =
  (* rbx = (5 < 7) ? 1 : 0 via setl; then cmove overwrites only if ZF. *)
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 5));
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 7));
  Asm.ins asm (Insn.Setcc (Insn.L_, Insn.Reg Reg.RBX));
  (* cmp 5,5 -> ZF; cmove rbx <- 40+rbx? use a second reg *)
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 41));
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 5));
  Asm.ins asm (Insn.Cmov (Insn.E, Reg.RBX, Insn.Reg Reg.RCX));
  (* cmovne must NOT fire *)
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 99));
  Asm.ins asm (Insn.Cmov (Insn.NE, Reg.RBX, Insn.Reg Reg.RCX));
  exit_rbx asm;
  check_exit 41 (run_elf (elf_of_asm asm))

let test_movzx_movsx () =
  (* store byte 0x80; movzx -> 0x80; movsx -> -128 (low byte 0x80).
     Distinguish via shift: movzx >> 7 = 1; movsx >> 7 = -1 (all ones). *)
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Movabs (Reg.RDI, Int64.of_int (Machine.stack_top - 64)));
  Asm.ins asm
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm (-128)));
  Asm.ins asm (Insn.Movzx (Reg.RBX, Insn.Mem (Insn.mem ~base:Reg.RDI ())));
  Asm.ins asm (Insn.Shift (Insn.Shr, Insn.Q, Insn.Reg Reg.RBX, 7));
  Asm.ins asm (Insn.Movsx (Reg.RCX, Insn.Mem (Insn.mem ~base:Reg.RDI ())));
  Asm.ins asm (Insn.Shift (Insn.Sar, Insn.Q, Insn.Reg Reg.RCX, 7));
  (* rbx = 1, rcx = -1; rbx - rcx = 2 *)
  Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RCX));
  exit_rbx asm;
  check_exit 2 (run_elf (elf_of_asm asm))

let test_neg_not () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 7));
  Asm.ins asm (Insn.Neg (Insn.Q, Insn.Reg Reg.RBX));
  (* -7 + 17 = 10 *)
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 17));
  Asm.ins asm (Insn.Not (Insn.Q, Insn.Reg Reg.RBX));
  (* ~10 = -11; neg -> 11 *)
  Asm.ins asm (Insn.Neg (Insn.Q, Insn.Reg Reg.RBX));
  exit_rbx asm;
  check_exit 11 (run_elf (elf_of_asm asm))

let test_neg_sets_flags () =
  (* neg of zero leaves ZF set (0 - 0); neg of nonzero sets CF. *)
  let asm = Asm.create ~base in
  let nz = Asm.fresh_label asm "nz" in
  let fail_ = Asm.fresh_label asm "fail" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  Asm.ins asm (Insn.Neg (Insn.Q, Insn.Reg Reg.RBX));
  Asm.jcc asm Insn.E nz;
  Asm.jmp asm fail_;
  Asm.place asm nz;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 5));
  Asm.ins asm (Insn.Neg (Insn.Q, Insn.Reg Reg.RBX));
  let ok = Asm.fresh_label asm "ok" in
  Asm.jcc asm Insn.B_ ok (* CF set *);
  Asm.jmp asm fail_;
  Asm.place asm ok;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  exit_rbx asm;
  Asm.place asm fail_;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  exit_rbx asm;
  check_exit 0 (run_elf (elf_of_asm asm))

(* ------------------------------------------------------------------ *)
(* Self-modifying code                                                 *)
(* ------------------------------------------------------------------ *)

(* Place [f: movabs rbx, 1; f_end: ret] after [asm]'s code and load it
   all into one read-write-execute segment, so the guest can rewrite
   [f]'s immediate. *)
let writable_code_elf asm ~f ~f_end =
  Asm.place asm f;
  Asm.ins asm (Insn.Movabs (Reg.RBX, 1L));
  Asm.place asm f_end;
  Asm.ins asm Insn.Ret;
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = { Elf_file.r = true; w = true; x = true };
         vaddr = base;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  elf

let test_self_modifying_code () =
  (* Call f (movabs rbx, 1; ret), overwrite the immediate in place, call f
     again: the second call must see the new immediate. This is the
     stale-icache hazard — the superblock cache holds f's old body when
     the store lands. *)
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" in
  let f_end = Asm.fresh_label asm "f_end" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  Asm.call asm f;
  (* rbx = 1; save it shifted so both calls land in the exit code *)
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Reg Reg.RBX));
  Asm.ins asm (Insn.Shift (Insn.Shl, Insn.Q, Insn.Reg Reg.RCX, 4));
  (* Poke 11 into the low byte of the movabs immediate (last 8 bytes of
     the 10-byte instruction ending at f_end). *)
  Asm.lea_label asm Reg.RDI f_end;
  Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 8));
  Asm.ins asm
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 11));
  Asm.call asm f;
  (* rbx = 11; combine: 1*16 + 11 = 27 *)
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RCX));
  exit_rbx asm;
  let r = run_elf (writable_code_elf asm ~f ~f_end) in
  check_exit 27 r;
  Alcotest.(check bool) "cache was rebuilt after the store" true
    (r.Cpu.block_misses >= 2);
  Alcotest.(check bool) "the store was counted as a flush" true
    (r.Cpu.block_invalidations >= 1)

(* ------------------------------------------------------------------ *)
(* Host calls                                                          *)
(* ------------------------------------------------------------------ *)

let test_malloc_hostcall () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 64));
  Asm.ins asm (Insn.Int Hostcall.malloc);
  (* Write and read back through the returned pointer. *)
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RAX ~disp:8 ()), Insn.Imm 33));
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Mem (Insn.mem ~base:Reg.RAX ~disp:8 ())));
  exit_rbx asm;
  check_exit 33 (run_elf (elf_of_asm asm))

let test_counter_hostcall () =
  let asm = Asm.create ~base in
  let loop = Asm.fresh_label asm "loop" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 5));
  Asm.place asm loop;
  Asm.ins asm (Insn.Int Hostcall.count);
  Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 1));
  Asm.jcc asm Insn.NE loop;
  exit_with asm 0;
  let r = run_elf (elf_of_asm asm) in
  check_exit 0 r;
  match r.Cpu.counters with
  | [ (_, 5) ] -> ()
  | other ->
      Alcotest.failf "expected one site with 5 hits, got %d entries"
        (List.length other)

(* ------------------------------------------------------------------ *)
(* B0 trap model                                                       *)
(* ------------------------------------------------------------------ *)

let test_int3_trap_redirect () =
  (* Simulate a B0 patch by hand: int3 at a known site, trap table sends
     control to a "trampoline" that sets RBX and jumps back. *)
  let asm = Asm.create ~base in
  let site = Asm.fresh_label asm "site" in
  let after = Asm.fresh_label asm "after" in
  let tramp = Asm.fresh_label asm "tramp" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 0));
  Asm.place asm site;
  Asm.ins asm Insn.Int3;
  Asm.place asm after;
  exit_rbx asm;
  Asm.place asm tramp;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 99));
  Asm.jmp asm after;
  let trap_rec =
    [ { Loadmap.patch_addr = 0; trampoline_addr = 0 } ]
    (* placeholder; replaced after assembly below *)
  in
  ignore trap_rec;
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rx;
         vaddr = base;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  ignore
    (Elf_file.add_section elf ~name:Elf_file.trap_section_name ~addr:0
       ~sh_type:1 ~sh_flags:0
       ~content:
         (Loadmap.encode_traps
            [ { Loadmap.patch_addr = Asm.label_addr asm site;
                trampoline_addr = Asm.label_addr asm tramp } ]));
  let r = run_elf elf in
  check_exit 99 r;
  Alcotest.(check int) "one trap taken" 1 r.Cpu.traps;
  Alcotest.(check bool) "traps are expensive" true
    (r.Cpu.cycles > Cpu.default_config.Cpu.trap_penalty)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_far_jump_penalty () =
  (* Same work, near vs far callee: far version must cost more cycles. *)
  let build far =
    let asm = Asm.create ~base in
    let f = Asm.fresh_label asm "f" in
    Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 3));
    Asm.call asm f;
    exit_rbx asm;
    if far then
      (* push the callee to another page *)
      for _ = 1 to 5000 do
        Asm.ins asm (Insn.Nop 1)
      done;
    Asm.place asm f;
    Asm.ins asm Insn.Ret;
    elf_of_asm asm
  in
  let near = run_elf (build false) and far = run_elf (build true) in
  check_exit 3 near;
  check_exit 3 far;
  Alcotest.(check bool) "far call costs more" true (far.Cpu.cycles > near.Cpu.cycles);
  Alcotest.(check int) "near has no far jumps" 0 near.Cpu.far_jumps;
  Alcotest.(check int) "far has two (call+ret)" 2 far.Cpu.far_jumps

let test_fuel_exhaustion () =
  let asm = Asm.create ~base in
  let loop = Asm.fresh_label asm "loop" in
  Asm.place asm loop;
  Asm.jmp asm loop;
  let config = { Cpu.default_config with Cpu.fuel = 1000 } in
  let r = run_elf ~config (elf_of_asm asm) in
  Alcotest.(check bool) "out of fuel" true (r.Cpu.outcome = Cpu.Out_of_fuel);
  Alcotest.(check int) "ran exactly fuel" 1000 r.Cpu.insns;
  (* Fuel that runs out inside a block rebuilt after a self-modifying
     store: call f, rewrite f's immediate (flushing the block cache), call
     f again, then spin. The fuel tail single-steps the first instruction
     of the freshly fetched block, so every limit retires exactly [fuel]
     instructions. *)
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" and f_end = Asm.fresh_label asm "f_end" in
  let spin = Asm.fresh_label asm "spin" in
  Asm.call asm f;
  Asm.lea_label asm Reg.RDI f_end;
  Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 8));
  Asm.ins asm
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 11));
  Asm.call asm f;
  Asm.place asm spin;
  for _ = 1 to 6 do
    Asm.ins asm (Insn.Inc (Insn.Q, Insn.Reg Reg.RBX))
  done;
  Asm.jmp asm spin;
  let elf = writable_code_elf asm ~f ~f_end in
  for fuel = 1 to 40 do
    let r = run_elf ~config:{ Cpu.default_config with Cpu.fuel } elf in
    Alcotest.(check bool)
      (Printf.sprintf "fuel %d: out of fuel" fuel)
      true (r.Cpu.outcome = Cpu.Out_of_fuel);
    Alcotest.(check int) (Printf.sprintf "fuel %d: exact insns" fuel) fuel
      r.Cpu.insns;
    if fuel >= 7 then
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d: the store flushed the cache" fuel)
        true (r.Cpu.block_invalidations >= 1)
  done

let test_fault_reported () =
  let asm = Asm.create ~base in
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Mem (Insn.mem ~disp:0x10 ())));
  let r = run_elf (elf_of_asm asm) in
  match r.Cpu.outcome with
  | Cpu.Fault (0x10, _) -> ()
  | _ -> Alcotest.fail "expected fault at 0x10"

let suites =
  [ ( "vm.space",
      [ Alcotest.test_case "read/write" `Quick test_space_rw;
        Alcotest.test_case "protection" `Quick test_space_prot;
        Alcotest.test_case "overmap replaces" `Quick test_space_overmap;
        Alcotest.test_case "one-to-many" `Quick test_space_one_to_many;
        Alcotest.test_case "fetch_window truncates" `Quick
          test_space_fetch_window_truncates;
        Alcotest.test_case "map_zero newest wins" `Quick
          test_space_map_zero_newest_wins;
        Alcotest.test_case "page cache after map_zero" `Quick
          test_space_last_page_cache_map_zero;
        Alcotest.test_case "shared alias privatizes" `Quick
          test_space_shared_alias_privatizes ] );
    ( "emu.basic",
      [ Alcotest.test_case "exit code" `Quick test_exit_code;
        Alcotest.test_case "write syscall" `Quick test_write_syscall;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "call/ret" `Quick test_call_ret;
        Alcotest.test_case "push/pop" `Quick test_push_pop;
        Alcotest.test_case "memory ops" `Quick test_memory_ops;
        Alcotest.test_case "SIB addressing" `Quick test_sib_addressing;
        Alcotest.test_case "indirect jump table" `Quick
          test_indirect_jump_table;
        Alcotest.test_case "signed/unsigned flags" `Quick
          test_flags_signed_unsigned;
        Alcotest.test_case "32-bit zero extend" `Quick test_32bit_zero_extend;
        Alcotest.test_case "byte ops" `Quick test_byte_ops;
        Alcotest.test_case "setcc/cmov" `Quick test_setcc_cmov;
        Alcotest.test_case "movzx/movsx" `Quick test_movzx_movsx;
        Alcotest.test_case "neg/not" `Quick test_neg_not;
        Alcotest.test_case "neg flags" `Quick test_neg_sets_flags;
        Alcotest.test_case "self-modifying code" `Quick
          test_self_modifying_code ] );
    ( "emu.hostcalls",
      [ Alcotest.test_case "malloc" `Quick test_malloc_hostcall;
        Alcotest.test_case "counter" `Quick test_counter_hostcall ] );
    ( "emu.b0",
      [ Alcotest.test_case "int3 trap redirect" `Quick test_int3_trap_redirect ]
    );
    ( "emu.cost",
      [ Alcotest.test_case "far jump penalty" `Quick test_far_jump_penalty;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "fault reported" `Quick test_fault_reported ] ) ]
