(* Binary heap-write hardening with low-fat pointers (paper §6.3).

   Instruments every heap-write instruction of a binary with a redzone
   check `p - base(p) >= 16`, with bounds recomputed from the pointer's
   own bit pattern (no metadata). Run against a clean workload (no false
   positives, measurable overhead) and an injected buffer overflow
   (caught at the moment of the wild write).

     dune exec examples/hardening.exe *)

module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Codegen = E9_workload.Codegen
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Rewriter = E9_core.Rewriter
module Stats = E9_core.Stats
module Tool = E9_tool.Tool
module Lowfat = E9_lowfat.Lowfat
module Hostcall = E9_emu.Hostcall

let printf = Format.printf

(* The check parks %rdi in the scratch slot of the injected
   instrumentation runtime, so the rewrite input is the augmented image. *)
let harden elf =
  (Tool.run elf [ Tool.rule_of ~m:"heap-writes" ~p:"lowfat" () ]).Tool.rewrite

let run elf = Machine.run ~make_allocator:Lowfat.make_allocator elf

(* Part 1: a realistic clean workload. *)
let clean_workload () =
  printf "--- clean workload ---@.";
  let prof =
    { Codegen.default_profile with
      Codegen.name = "hardening-clean"; seed = 7L; functions = 50;
      iterations = 200 }
  in
  let elf = Codegen.generate prof in
  let orig = run elf in
  let r = harden elf in
  printf "instrumented %d heap writes: %a@."
    (Stats.total r.Rewriter.stats) Stats.pp r.Rewriter.stats;
  let hardened = run r.Rewriter.output in
  printf "equivalent: %b, violations: %d, overhead: %.0f%% of original@."
    (Machine.equivalent orig hardened)
    hardened.Cpu.violations
    (100.0 *. float_of_int hardened.Cpu.cycles /. float_of_int orig.Cpu.cycles)

(* Part 2: an off-by-N heap buffer overflow (write past a 64-byte object
   into the neighbouring slot's redzone). *)
let vulnerable () =
  let base = 0x400000 in
  let asm = Asm.create ~base in
  let loop = Asm.fresh_label asm "loop" in
  let ins i = Asm.ins asm i in
  (* p = malloc(64); for i = 0..14: p[i*8] = i   -- i = 14 is out of bounds
     (usable bytes = 112 in the 128-byte slot; index 14 writes at 112). *)
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 64));
  ins (Insn.Int Hostcall.malloc);
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 0));
  Asm.place asm loop;
  ins (Insn.Mov
         (Insn.Q,
          Insn.Mem (Insn.mem ~base:Reg.RBX ~index:(Reg.RCX, Insn.S8) ()),
          Insn.Reg Reg.RCX));
  ins (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 1));
  ins (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.RCX, Insn.Imm 15));
  Asm.jcc asm Insn.NE loop;
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 0));
  ins Insn.Syscall;
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx; vaddr = base;
        offset = 0; filesz = 0; memsz = Bytes.length code; align = 4096 }
      ~content:code
  in
  elf.Elf_file.sections <-
    [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6; addr = base;
        offset = off; size = Bytes.length code } ];
  elf

let overflow_demo () =
  printf "@.--- injected buffer overflow ---@.";
  let elf = vulnerable () in
  (match (run elf).Cpu.outcome with
  | Cpu.Exited 0 ->
      printf "unhardened: exits 0 — the overflow corrupts silently@."
  | _ -> printf "unhardened: unexpected outcome@.");
  let r = harden elf in
  let hardened = run r.Rewriter.output in
  match hardened.Cpu.outcome with
  | Cpu.Violation p ->
      printf "hardened:   REDZONE VIOLATION at pointer 0x%x@." p;
      printf "            slot base 0x%x, p - base = %d < %d (the redzone)@."
        (Lowfat.base p) (p - Lowfat.base p) Lowfat.redzone
  | _ -> printf "hardened: overflow was not caught?!@."

let () =
  clean_workload ();
  overflow_demo ()
