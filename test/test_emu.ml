(* Tests for the VM and the x86 subset emulator: whole programs assembled
   with Asm, packed into ELF images, loaded, and executed. *)

module Space = E9_vm.Space
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Hostcall = E9_emu.Hostcall
module Codegen = E9_workload.Codegen
module Tool = E9_tool.Tool
module Rewriter = E9_core.Rewriter
module Trace = E9_check.Trace

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
  (* A read primes the page's TLB slot; map_zero over the same page must
     not leave the slot serving stale bytes. *)
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

let test_space_tlb_collision () =
  (* Pages [a] and [b] share one direct-mapped slot in each TLB (the
     first page above [a] that does): alternating accesses evict each
     other and must still read and write their own page. *)
  let s = Space.create () in
  let a = 0x40_0000 in
  let rec colliding pn =
    if Space.tlb_slot pn = Space.tlb_slot (a / 4096) then pn * 4096
    else colliding (pn + 1)
  in
  let b = colliding ((a / 4096) + 1) in
  Space.map_zero s ~vaddr:a ~len:4096 ~prot:Elf_file.prot_rw;
  Space.map_zero s ~vaddr:b ~len:4096 ~prot:Elf_file.prot_r;
  for i = 0 to 9 do
    Space.write_u64 s (a + (8 * i)) (i + 1);
    Alcotest.(check int) "b reads zero" 0 (Space.read_u64 s (b + (8 * i)));
    Alcotest.(check int) "a reads its store" (i + 1)
      (Space.read_u64 s (a + (8 * i)))
  done;
  Alcotest.(check int) "a u32" 7 (Space.read_u32 s (a + 48));
  (try
     Space.write_u8 s b 1;
     Alcotest.fail "a write to read-only b hit a's write slot"
   with Space.Fault (addr, _) -> Alcotest.(check int) "fault address" b addr);
  Space.write_u32 s (a + 4) 0xdead_beef;
  Alcotest.(check int) "a after the fault" 0xdead_beef (Space.read_u32 s (a + 4))

let test_space_tlb_flush () =
  (* Page [a] is cached in both TLBs, then page [b] (another slot) is
     the last one used; every mapping operation over [a] must still be
     seen by the next access to [a]. *)
  let s = Space.create () in
  let a = 0x10_0000 and b = 0x20_3000 in
  Alcotest.(check bool) "a and b take different slots" true
    (Space.tlb_slot (a / 4096) <> Space.tlb_slot (b / 4096));
  Space.map_bytes s ~vaddr:a ~prot:Elf_file.prot_rw (Bytes.make 4096 'a');
  Space.map_zero s ~vaddr:b ~len:4096 ~prot:Elf_file.prot_rw;
  let touch () =
    Space.write_u8 s (a + 1) (Char.code 'w');
    ignore (Space.read_u8 s a);
    Space.write_u8 s b 1;
    ignore (Space.read_u8 s b)
  in
  touch ();
  Space.map_zero s ~vaddr:a ~len:16 ~prot:Elf_file.prot_rw;
  Alcotest.(check int) "map_zero seen" 0 (Space.read_u8 s (a + 1));
  touch ();
  Space.map_sub s ~vaddr:a ~prot:Elf_file.prot_rw (Bytes.of_string "xyz")
    ~src_off:1 ~len:2;
  Alcotest.(check int) "map_sub seen" (Char.code 'z') (Space.read_u8 s (a + 1));
  touch ();
  Space.map_bytes s ~vaddr:a ~prot:Elf_file.prot_r (Bytes.of_string "r");
  Alcotest.(check int) "re-protect keeps bytes" (Char.code 'r')
    (Space.read_u8 s a);
  (try
     Space.write_u8 s (a + 1) 0;
     Alcotest.fail "write after re-protect to read-only"
   with Space.Fault (addr, _) -> Alcotest.(check int) "fault" (a + 1) addr);
  ignore (Space.read_u8 s b);
  Space.map_bytes s ~vaddr:a
    ~prot:{ Elf_file.r = false; w = false; x = true }
    (Bytes.of_string "x");
  try
    ignore (Space.read_u8 s a);
    Alcotest.fail "read after re-protect to execute-only"
  with Space.Fault (addr, _) -> Alcotest.(check int) "fault" a addr

let test_space_exec_store_generation () =
  (* Every store to an executable page advances the generation, the
     second one too (it hits the TLB). *)
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x5000
    ~prot:{ Elf_file.r = true; w = true; x = true }
    (Bytes.make 64 '\x90');
  let g0 = Space.generation s in
  Space.write_u8 s 0x5000 0xcc;
  let g1 = Space.generation s in
  Space.write_u64 s 0x5008 1;
  let g2 = Space.generation s in
  Alcotest.(check bool) "first store" true (g1 > g0);
  Alcotest.(check bool) "second store" true (g2 > g1)

let test_space_word_truncation () =
  (* Words are 63-bit: a 64-bit read drops byte 7's top bit, a 64-bit
     write stores it clear, and 32-bit accesses are exact. *)
  let s = Space.create () in
  Space.map_bytes s ~vaddr:0x1000 ~prot:Elf_file.prot_rw (Bytes.make 16 '\xff');
  Alcotest.(check int) "u64 of all ones" (-1) (Space.read_u64 s 0x1000);
  Alcotest.(check int) "u32 of all ones" 0xffff_ffff (Space.read_u32 s 0x1000);
  Space.write_u64 s 0x1000 (-2);
  Alcotest.(check int) "byte 0" 0xfe (Space.read_u8 s 0x1000);
  Alcotest.(check int) "byte 7 top bit clear" 0x7f (Space.read_u8 s 0x1007);
  Space.write_u32 s 0x1008 (-1);
  Alcotest.(check int) "u32 store" 0xffff_ffff (Space.read_u32 s 0x1008);
  Alcotest.(check int) "byte after u32" 0xff (Space.read_u8 s 0x100c)

let test_space_cstring () =
  let s = Space.create () in
  let text = Bytes.make 8192 'a' in
  Bytes.set text 4100 '\000';
  Space.map_bytes s ~vaddr:0x10000 ~prot:Elf_file.prot_rw text;
  Alcotest.(check string) "across a page" (String.make 10 'a')
    (Space.read_cstring s (0x10000 + 4090) ~max:256);
  Alcotest.(check int) "capped" 256
    (String.length (Space.read_cstring s 0x10000 ~max:256));
  (* The 257th byte is read: at the first byte of an unmapped page it
     faults there, one byte earlier it does not. *)
  Alcotest.(check int) "cap at the end" 256
    (String.length (Space.read_cstring s (0x12000 - 257) ~max:256));
  (try
     ignore (Space.read_cstring s (0x12000 - 256) ~max:256);
     Alcotest.fail "the 257th byte is unmapped"
   with Space.Fault (addr, _) -> Alcotest.(check int) "fault" 0x12000 addr);
  try
    ignore (Space.read_cstring s (0x12000 - 20) ~max:256);
    Alcotest.fail "a string into an unmapped page"
  with Space.Fault (addr, _) -> Alcotest.(check int) "fault" 0x12000 addr

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

(* [asm]'s code in one read-write-execute segment, so the guest can
   rewrite its own instructions. *)
let rwx_elf asm =
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

(* Place [f: movabs rbx, 1; f_end: ret] after [asm]'s code, all of it
   writable, so the guest can rewrite [f]'s immediate. *)
let writable_code_elf asm ~f ~f_end =
  Asm.place asm f;
  Asm.ins asm (Insn.Movabs (Reg.RBX, 1L));
  Asm.place asm f_end;
  Asm.ins asm Insn.Ret;
  rwx_elf asm

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

(* [print] of the C string at [addr] in a program whose data are two
   pages at 0x600000 holding [text] then nothing. *)
let print_at text addr =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm addr));
  Asm.ins asm (Insn.Int Hostcall.print);
  exit_with asm 0;
  let data = Bytes.make 8192 'p' in
  Bytes.blit_string text 0 data 0 (String.length text);
  run_elf
    (elf_of_asm asm ~extra:(fun elf ->
         ignore
           (Elf_file.add_segment elf
              { Elf_file.ptype = Elf_file.Load;
                prot = Elf_file.prot_rw;
                vaddr = 0x600000;
                offset = 0;
                filesz = 0;
                memsz = 8192;
                align = 4096 }
              ~content:data)))

let test_print_cstring_pages () =
  let text = String.make 4090 'x' ^ "across\000" in
  let r = print_at text (0x600000 + 4080) in
  check_exit 0 r;
  Alcotest.(check (list string)) "string across a page"
    [ String.make 10 'x' ^ "across" ] r.Cpu.prints;
  (* No NUL before the unmapped page: the read faults at its first byte. *)
  let r = print_at "" (0x602000 - 100) in
  match r.Cpu.outcome with
  | Cpu.Fault (0x602000, _) -> ()
  | _ -> Alcotest.fail "expected a fault at the unmapped page"

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
    (r.Cpu.cycles > Cpu.trap_penalty)

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

(* ------------------------------------------------------------------ *)
(* Blocks cut short: exact counts                                      *)
(* ------------------------------------------------------------------ *)

(* A block's instructions and cycles are counted once, when it is
   entered; a block that ends early must take back the ones that did not
   run. Each program below is one block of straight-line code. *)
let check_counts what (r : Cpu.result) ~insns ~cycles =
  Alcotest.(check int) (what ^ ": insns") insns r.Cpu.insns;
  Alcotest.(check int) (what ^ ": cycles") cycles r.Cpu.cycles

let test_fault_mid_block () =
  (* A fault on the 3rd of 5 instructions. *)
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 2));
  Asm.ins asm
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Mem (Insn.mem ~disp:0x10 ())));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Imm 3));
  Asm.ins asm Insn.Ret;
  let r = run_elf (elf_of_asm asm) in
  (match r.Cpu.outcome with
  | Cpu.Fault (0x10, _) -> ()
  | _ -> Alcotest.fail "expected a fault at 0x10");
  check_counts "fault" r ~insns:3 ~cycles:3

let test_exit_mid_block () =
  let asm = Asm.create ~base in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 7));
  Asm.ins asm Insn.Syscall;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  Asm.ins asm Insn.Ret;
  let r = run_elf (elf_of_asm asm) in
  check_exit 7 r;
  check_counts "exit" r ~insns:3 ~cycles:3

let test_store_into_own_block () =
  (* The third instruction rewrites the immediate of the fifth, in the
     block that is executing: the rest of the block must be lowered
     again, and the fifth must run its new bytes. *)
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" and f_end = Asm.fresh_label asm "f_end" in
  Asm.lea_label asm Reg.RDI f_end;
  Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 8));
  Asm.ins asm
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 11));
  Asm.ins asm (Insn.Nop 1);
  Asm.place asm f;
  Asm.ins asm (Insn.Movabs (Reg.RBX, 1L));
  Asm.place asm f_end;
  exit_rbx asm;
  let r = run_elf (rwx_elf asm) in
  check_exit 11 r;
  check_counts "store into own block" r ~insns:8 ~cycles:8;
  Alcotest.(check int) "one flush" 1 r.Cpu.block_invalidations

let test_fuel_mid_block () =
  let asm = Asm.create ~base in
  List.iter
    (fun r -> Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg r, Insn.Imm 1)))
    [ Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX ];
  Asm.ins asm Insn.Ret;
  let r =
    run_elf ~config:{ Cpu.default_config with Cpu.fuel = 3 } (elf_of_asm asm)
  in
  Alcotest.(check bool) "out of fuel" true (r.Cpu.outcome = Cpu.Out_of_fuel);
  check_counts "fuel" r ~insns:3 ~cycles:3

(* Small generated programs and their [jumps|count] rewrites (a host
   call inside most trampoline blocks): a run with fuel one short of the
   full run's instruction count stops out of fuel at exactly that count,
   and a run with exactly that fuel ends as the full run did. *)
let prop_fuel_exact =
  QCheck.Test.make ~name:"fuel n-1 stops at n-1, fuel n ends as the full run"
    ~count:15
    QCheck.(pair (int_range 1 10_000) (pair (int_range 2 6) (int_range 1 4)))
    (fun (seed, (functions, iterations)) ->
      let elf =
        Codegen.generate
          { Codegen.default_profile with
            Codegen.seed = Int64.of_int seed; functions; iterations }
      in
      let rewrite =
        (Tool.run elf [ Tool.rule_of ~m:"jumps" ~p:"count" () ]).Tool.rewrite
          .Rewriter.output
      in
      List.for_all
        (fun elf ->
          let full = run_elf elf in
          let n = full.Cpu.insns in
          let fuel f = { Cpu.default_config with Cpu.fuel = f } in
          let short = run_elf ~config:(fuel (n - 1)) elf in
          let exact = run_elf ~config:(fuel n) elf in
          short.Cpu.outcome = Cpu.Out_of_fuel
          && short.Cpu.insns = n - 1
          && exact.Cpu.outcome = full.Cpu.outcome
          && exact.Cpu.insns = n
          && exact.Cpu.cycles = full.Cpu.cycles)
        [ elf; rewrite ])

(* ------------------------------------------------------------------ *)
(* Chained blocks and invalidation                                     *)
(* ------------------------------------------------------------------ *)

(* Six trips of a loop that calls [b] ([movabs rbx, 1; ret]) and adds
   rbx up; after the third, [change asm] runs, which must make [b]
   return 10, so the exit code is 3 * 1 + 3 * 10 = 33. The loop's call
   block links to [b] on its first trip. *)
let chain_loop asm ~call_b ~change =
  let loop = Asm.fresh_label asm "loop" in
  let done_ = Asm.fresh_label asm "done" and keep = Asm.fresh_label asm "keep" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.R12, Insn.Imm 0));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.R13, Insn.Imm 0));
  Asm.place asm loop;
  call_b asm;
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.R13, Insn.Reg Reg.RBX));
  Asm.ins asm (Insn.Inc (Insn.Q, Insn.Reg Reg.R12));
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.R12, Insn.Imm 6));
  Asm.jcc asm Insn.E done_;
  Asm.ins asm (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.R12, Insn.Imm 3));
  Asm.jcc asm Insn.NE keep;
  change asm;
  Asm.place asm keep;
  Asm.jmp asm loop;
  Asm.place asm done_;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.R13));
  exit_rbx asm

let test_chain_store () =
  (* [b] is rewritten in place by a store. *)
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" and f_end = Asm.fresh_label asm "f_end" in
  chain_loop asm
    ~call_b:(fun asm -> Asm.call asm f)
    ~change:(fun asm ->
      Asm.lea_label asm Reg.RDI f_end;
      Asm.ins asm (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 8));
      Asm.ins asm
        (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RDI ()), Insn.Imm 10)));
  let r = run_elf (writable_code_elf asm ~f ~f_end) in
  check_exit 33 r;
  Alcotest.(check int) "one flush" 1 r.Cpu.block_invalidations

let test_chain_mmap () =
  (* [b] is alone on its page, which an executable file-backed [mmap]
     replaces with a copy returning 10. *)
  let b_page = base + 0x1000 in
  let b_code v =
    let asm = Asm.create ~base:b_page in
    Asm.ins asm (Insn.Movabs (Reg.RBX, Int64.of_int v));
    Asm.ins asm Insn.Ret;
    let code = Asm.assemble asm in
    Bytes.cat code (Bytes.make (4096 - Bytes.length code) '\000')
  in
  let fd = 5 in
  let asm = Asm.create ~base in
  chain_loop asm
    ~call_b:(fun asm ->
      Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.R14, Insn.Imm b_page));
      Asm.ins asm (Insn.Call_ind (Insn.Reg Reg.R14)))
    ~change:(fun asm ->
      List.iter
        (fun (r, v) -> Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg r, Insn.Imm v)))
        [ (Reg.RAX, 9); (Reg.RDI, b_page); (Reg.RSI, 4096);
          (Reg.RDX, 5 (* r-x *)); (Reg.R10, 0x12 (* MAP_FIXED|MAP_PRIVATE *));
          (Reg.R8, fd); (Reg.R9, 0) ];
      Asm.ins asm Insn.Syscall);
  let space = Space.create () in
  Space.map_bytes space ~vaddr:base ~prot:Elf_file.prot_rx (Asm.assemble asm);
  Space.map_bytes space ~vaddr:b_page ~prot:Elf_file.prot_rx (b_code 1);
  let stack_top = 0x7000_0000 in
  Space.map_zero space ~vaddr:(stack_top - 0x10000) ~len:0x10000
    ~prot:Elf_file.prot_rw;
  let r =
    Cpu.run ~files:[ (fd, lazy (b_code 10)) ] space ~entry:base ~stack_top
      ~traps:(Hashtbl.create 1)
      ~allocator:(Cpu.bump_allocator space ~heap_base:0x6000_0000)
  in
  check_exit 33 r;
  Alcotest.(check int) "one flush" 1 r.Cpu.block_invalidations

(* ------------------------------------------------------------------ *)
(* The register digest a tracer receives                               *)
(* ------------------------------------------------------------------ *)

(* Run [elf] watching the retires [watch] names and count them, and the
   ones whose digest is not [Trace.regs_hash] of the register file. *)
let digest_run ~watch elf =
  let retires = ref 0 and wrong = ref 0 in
  let tracer =
    { Cpu.watch =
        (fun ~addr ~insn:_ -> { Cpu.retire = watch addr; stores = false });
      on_retire =
        (fun ~addr:_ ~regs ~digest ->
          incr retires;
          if digest <> Trace.regs_hash regs then incr wrong);
      on_store = (fun ~addr:_ ~size:_ ~value:_ -> ()) }
  in
  let r = Machine.run ~tracer elf in
  (r, !retires, !wrong)

let test_digest_every_retire () =
  (* Every instruction watched: stack traffic, a call and return, flags
     through the stack, a malloc host call and syscalls. *)
  let asm = Asm.create ~base in
  let f = Asm.fresh_label asm "f" and msg = Asm.fresh_label asm "msg" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 64));
  Asm.ins asm (Insn.Int Hostcall.malloc);
  Asm.ins asm
    (Insn.Mov
       (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RAX ~disp:8 ()), Insn.Imm 5));
  Asm.ins asm (Insn.Push Reg.RBX);
  Asm.ins asm (Insn.Push Reg.RAX);
  Asm.ins asm (Insn.Pop Reg.RCX);
  Asm.ins asm (Insn.Pop Reg.RDX);
  Asm.call asm f;
  Asm.lea_label asm Reg.RSI msg;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Imm 3));
  Asm.ins asm Insn.Syscall;
  Asm.ins asm (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  exit_rbx asm;
  Asm.place asm f;
  Asm.ins asm (Insn.Movabs (Reg.RBX, 4L));
  Asm.ins asm Insn.Pushfq;
  Asm.ins asm (Insn.Pop Reg.R9);
  Asm.ins asm (Insn.Push Reg.R9);
  Asm.ins asm Insn.Popfq;
  Asm.ins asm Insn.Ret;
  Asm.place asm msg;
  Asm.ins_raw asm "hi\n";
  let r, retires, wrong = digest_run ~watch:(fun _ -> true) (elf_of_asm asm) in
  check_exit 7 r;
  Alcotest.(check int) "every retire watched" r.Cpu.insns retires;
  Alcotest.(check int) "digests that are not regs_hash" 0 wrong

let test_digest_oracle_watch () =
  (* Both sides of a rewrite that carries the runtime, watched where the
     trace oracle watches: original boundaries only, so the unwatched
     trampoline code between two retires is folded in one step. *)
  let elf =
    Codegen.generate
      { Codegen.default_profile with
        Codegen.seed = 7L; functions = 12; iterations = 20 }
  in
  let res = Tool.run elf [ Tool.rule_of ~m:"jumps" ~p:"print" () ] in
  let rt = res.Tool.runtime in
  let original = rt.Tool.augmented in
  let boundary =
    Trace.boundary ~index:res.Tool.rewrite.Rewriter.index
      ~instr_ranges:rt.Tool.instr_ranges ~original
  in
  let watch addr = addr = original.Elf_file.entry || boundary addr in
  List.iter
    (fun (side, elf) ->
      let r, retires, wrong = digest_run ~watch elf in
      Alcotest.(check bool) (side ^ ": exited") true
        (match r.Cpu.outcome with Cpu.Exited _ -> true | _ -> false);
      Alcotest.(check bool) (side ^ ": retires watched") true (retires > 1000);
      Alcotest.(check int) (side ^ ": digests that are not regs_hash") 0 wrong)
    [ ("original", original);
      ("rewrite", res.Tool.rewrite.Rewriter.output) ]

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
          test_space_shared_alias_privatizes;
        Alcotest.test_case "tlb slot collision" `Quick test_space_tlb_collision;
        Alcotest.test_case "tlb flush on mapping" `Quick test_space_tlb_flush;
        Alcotest.test_case "exec store generation" `Quick
          test_space_exec_store_generation;
        Alcotest.test_case "63-bit words" `Quick test_space_word_truncation;
        Alcotest.test_case "C strings by page" `Quick test_space_cstring ] );
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
        Alcotest.test_case "counter" `Quick test_counter_hostcall;
        Alcotest.test_case "print across pages" `Quick test_print_cstring_pages ] );
    ( "emu.b0",
      [ Alcotest.test_case "int3 trap redirect" `Quick test_int3_trap_redirect ]
    );
    ( "emu.cost",
      [ Alcotest.test_case "far jump penalty" `Quick test_far_jump_penalty;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "fault reported" `Quick test_fault_reported ] );
    ( "emu.blocks",
      [ Alcotest.test_case "fault on the 3rd of 5" `Quick test_fault_mid_block;
        Alcotest.test_case "exit mid-block" `Quick test_exit_mid_block;
        Alcotest.test_case "store into its own block" `Quick
          test_store_into_own_block;
        Alcotest.test_case "fuel out mid-block" `Quick test_fuel_mid_block;
        QCheck_alcotest.to_alcotest prop_fuel_exact;
        Alcotest.test_case "chain: store into the successor" `Quick
          test_chain_store;
        Alcotest.test_case "chain: mmap over the successor" `Quick
          test_chain_mmap ] );
    ( "emu.digest",
      [ Alcotest.test_case "every retire, every write kind" `Quick
          test_digest_every_retire;
        Alcotest.test_case "oracle's watch, runtime rewrite" `Quick
          test_digest_oracle_watch ] ) ]
