(* Tests for the E9Patch core: punning arithmetic, lock state, the
   address-space layout, page grouping, trampoline generation, the tactics,
   and whole-binary rewriting correctness. *)

module Buf = E9_bits.Buf
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Pun = E9_core.Pun
module Lock = E9_core.Lock
module Layout = E9_core.Layout
module Pagegroup = E9_core.Pagegroup
module Trampoline = E9_core.Trampoline
module Tactics = E9_core.Tactics
module Stats = E9_core.Stats
module Rewriter = E9_core.Rewriter
module Codegen = E9_workload.Codegen
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pun arithmetic                                                      *)
(* ------------------------------------------------------------------ *)

let test_pun_window_b1 () =
  (* free = 4: the full rel32 range. *)
  let lo, hi = Pun.target_window ~jmp_end:0x400100 ~free_bytes:4 ~fixed_high:0 in
  check_int "lo" (0x400100 - 0x8000_0000) lo;
  check_int "hi" (0x400100 + 0x7fff_ffff) hi

let test_pun_window_paper_example () =
  (* §2.1.3: patching mov %rax,(%rbx) before add $32,%rax. The two fixed
     bytes are 0x48 0x83, so rel32 = 0x8348XXXX — a negative displacement
     under little-endian ("the rel32 value will be interpreted as a
     negative offset since the MSB is set"). *)
  let jmp_end = 0x400005 in
  let fixed_high = Pun.fixed_high_of_bytes [ 0x48; 0x83 ] in
  check_int "fixed_high little-endian" 0x8348 fixed_high;
  let lo, hi = Pun.target_window ~jmp_end ~free_bytes:2 ~fixed_high in
  check_bool "negative window" true (hi < 0);
  check_int "window span" 0x10000 (hi - lo + 1);
  check_int "window lo" (jmp_end + 0x83480000 - 0x1_0000_0000) lo

let test_pun_window_positive () =
  (* Fixed bytes 0x48 0x03 (paper Figure 1 T1(b) flavour): positive. *)
  let fixed_high = Pun.fixed_high_of_bytes [ 0x03; 0x48 ] in
  let lo, hi = Pun.target_window ~jmp_end:0x400005 ~free_bytes:2 ~fixed_high in
  check_bool "positive window" true (lo > 0);
  check_int "span" 0x10000 (hi - lo + 1);
  check_int "lo" (0x400005 + 0x48030000) lo

let test_pun_window_one_free_byte () =
  let lo, hi =
    Pun.target_window ~jmp_end:0x400005 ~free_bytes:1
      ~fixed_high:(Pun.fixed_high_of_bytes [ 0x11; 0x22; 0x33 ])
  in
  check_int "span 256" 256 (hi - lo + 1);
  check_int "lo" (0x400005 + 0x33221100) lo

let test_pun_window_zero_free () =
  (* Fully constrained: a single exact target. *)
  let lo, hi =
    Pun.target_window ~jmp_end:0x400005 ~free_bytes:0
      ~fixed_high:(Pun.fixed_high_of_bytes [ 0x10; 0x20; 0x30; 0x40 ])
  in
  check_int "singleton" lo hi;
  check_int "exact" (0x400005 + 0x40302010) lo

let test_rel32_roundtrip () =
  List.iter
    (fun target ->
      let rel = Pun.rel32_for ~jmp_end:0x400000 ~target in
      let bytes = Pun.rel32_bytes rel in
      let reconstructed =
        Pun.fixed_high_of_bytes (Array.to_list bytes)
      in
      let signed =
        if reconstructed land 0x8000_0000 <> 0 then
          reconstructed - 0x1_0000_0000
        else reconstructed
      in
      check_int "roundtrip" rel signed)
    [ 0x400005; 0x10000; 0x400000 + 0x7fff0000; 0x400000 - 0x7fff0000 ]

let test_rel32_out_of_range () =
  Alcotest.check_raises "overflow"
    (Invalid_argument "Pun.rel32_for: target out of rel32 range") (fun () ->
      ignore (Pun.rel32_for ~jmp_end:0 ~target:0x1_0000_0000))

(* Property: every address in a window is reachable by some rel32 whose
   fixed bytes match, and no address outside is. *)
let prop_pun_window_correct =
  QCheck.Test.make ~name:"pun window = set of reachable targets" ~count:1000
    QCheck.(pair (int_bound 0xffffff) (int_bound 4))
    (fun (raw, free) ->
      let jmp_end = 0x400005 in
      let n_fixed = 4 - free in
      let fixed = List.init n_fixed (fun i -> (raw lsr (8 * i)) land 0xff) in
      let fixed_high = Pun.fixed_high_of_bytes fixed in
      let lo, hi = Pun.target_window ~jmp_end ~free_bytes:free ~fixed_high in
      (* Sample targets inside the window: their rel32 must carry the fixed
         bytes in the high positions. *)
      let ok = ref true in
      for i = 0 to 16 do
        let t = lo + ((hi - lo) * i / 16) in
        let rel = Pun.rel32_for ~jmp_end ~target:t in
        let bytes = Pun.rel32_bytes rel in
        List.iteri
          (fun j b -> if bytes.(free + j) <> b then ok := false)
          fixed
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Lock state                                                          *)
(* ------------------------------------------------------------------ *)

let test_lock_basic () =
  let l = Lock.create ~base:0x400000 ~len:100 in
  check_bool "initially unlocked" true
    (Lock.all_unlocked l ~addr:0x400000 ~len:100);
  Lock.lock_range l ~addr:0x400010 ~len:5;
  check_bool "locked" true (Lock.locked l 0x400012);
  check_bool "edge" false (Lock.locked l 0x400015);
  check_bool "range check" false (Lock.all_unlocked l ~addr:0x40000e ~len:4);
  check_int "count" 5 (Lock.locked_count l)

let test_lock_out_of_range_ignored () =
  let l = Lock.create ~base:0x400000 ~len:10 in
  Lock.lock l 0x3fffff;
  Lock.lock l 0x40000a;
  check_int "nothing locked" 0 (Lock.locked_count l);
  check_bool "outside reads unlocked" false (Lock.locked l 0x50000)

let test_lock_idempotent () =
  let l = Lock.create ~base:0 ~len:10 in
  Lock.lock l 3;
  Lock.lock l 3;
  check_int "counted once" 1 (Lock.locked_count l)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let mini_elf ?(vaddr = 0x400000) ?(memsz = 8192) () =
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:vaddr in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rx;
         vaddr;
         offset = 0;
         filesz = 0;
         memsz;
         align = 4096 }
       ~content:(Bytes.make 64 '\x90'));
  elf

let test_layout_avoids_segments () =
  let layout = Layout.create (mini_elf ()) in
  (* Allocation inside the segment (rounded to pages) must fail... *)
  check_bool "segment occupied" true
    (Layout.probe layout ~size:16 ~lo:0x400000 ~hi:0x401fff = None);
  (* ...and succeed right after it. *)
  match Layout.alloc layout ~size:16 ~lo:0x400000 ~hi:0x500000 with
  | Some a -> check_int "first free after segment" 0x402000 a
  | None -> Alcotest.fail "no allocation"

let test_layout_rejects_negative_and_null () =
  let layout = Layout.create (mini_elf ()) in
  check_bool "negative" true
    (Layout.probe layout ~size:16 ~lo:(-0x1000_0000) ~hi:(-1) = None);
  check_bool "null page" true
    (Layout.probe layout ~size:16 ~lo:0 ~hi:0xefff = None)

let test_layout_reserve_below_base () =
  let elf = mini_elf ~vaddr:0x5555_5555_4000 () in
  let shared = Layout.create ~reserve_below_base:true elf in
  let normal = Layout.create elf in
  check_bool "DSO: below base unavailable" true
    (Layout.probe shared ~size:16 ~lo:0x5555_0000_0000 ~hi:0x5555_5555_3fff
     = None);
  check_bool "PIE: below base available" true
    (Layout.probe normal ~size:16 ~lo:0x5555_0000_0000 ~hi:0x5555_5555_3fff
     <> None)

let test_layout_alloc_reserves () =
  let layout = Layout.create (mini_elf ()) in
  let a = Option.get (Layout.alloc layout ~size:100 ~lo:0x500000 ~hi:0x600000) in
  let b = Option.get (Layout.alloc layout ~size:100 ~lo:0x500000 ~hi:0x600000) in
  check_bool "disjoint" true (b >= a + 100 || a >= b + 100);
  check_int "trampoline bytes" 200 (Layout.trampoline_bytes layout)

let test_layout_alloc_at_and_release () =
  let layout = Layout.create (mini_elf ()) in
  check_bool "claim" true (Layout.alloc_at layout ~addr:0x500000 ~size:64);
  check_bool "double-claim fails" false
    (Layout.alloc_at layout ~addr:0x500020 ~size:64);
  Layout.release layout ~addr:0x500000 ~size:64;
  check_bool "after release" true
    (Layout.alloc_at layout ~addr:0x500020 ~size:64)

let test_layout_strided_probe () =
  let layout = Layout.create (mini_elf ()) in
  ignore (Layout.alloc_at layout ~addr:0x500000 ~size:0x300);
  (* Candidates at 0x500000 + k*0x100: first free candidate is 0x500300. *)
  match Layout.probe_strided layout ~size:16 ~lo:0x500000 ~hi:0x5fffff ~stride:0x100 with
  | Some a -> check_int "aligned to stride" 0x500300 a
  | None -> Alcotest.fail "no strided slot"

let test_layout_block_rounding () =
  (* With a 64-page block size, reservations round out much further. *)
  let layout = Layout.create ~block_size:(64 * 4096) (mini_elf ()) in
  check_bool "inside rounded block" true
    (Layout.probe layout ~size:16 ~lo:0x402000 ~hi:0x43ffff = None)

(* The next-fit cursor must only move placements, never change whether a
   window allocates: a window first-fit can satisfy still succeeds, and an
   exhausted window still fails. Repeated same-class allocations should
   mostly resume from the cursor rather than rescanning. *)
let test_layout_next_fit_cursor () =
  let layout = Layout.create (mini_elf ()) in
  for _ = 1 to 50 do
    match Layout.alloc layout ~size:64 ~lo:0x500000 ~hi:0x5fffff with
    | Some _ -> ()
    | None -> Alcotest.fail "allocation failed"
  done;
  check_bool "cursor mostly hits" true (Layout.cursor_hits layout >= 40);
  (* Make the cursor stale: fill the window from the cursor up, then free
     a gap below it. The resumed scan fails (a recorded miss) and the
     fallback first-fit rescan must still find the low gap. *)
  let misses0 = Layout.cursor_misses layout in
  (match Layout.alloc layout ~size:64 ~lo:0x700000 ~hi:0x700fff with
  | Some a -> check_int "first in fresh window" 0x700000 a
  | None -> Alcotest.fail "window alloc failed");
  Layout.reserve layout ~addr:0x700040 ~size:0xfc0;
  Layout.release layout ~addr:0x700000 ~size:64;
  (match Layout.alloc layout ~size:64 ~lo:0x700000 ~hi:0x700fff with
  | Some a -> check_int "fallback rescan finds the freed gap" 0x700000 a
  | None -> Alcotest.fail "fallback rescan failed");
  check_bool "miss recorded" true (Layout.cursor_misses layout > misses0)

(* ------------------------------------------------------------------ *)
(* Page grouping                                                       *)
(* ------------------------------------------------------------------ *)

let tramp at len fill = (at, Bytes.make len fill)

let read_mapping (res : Pagegroup.result) vaddr =
  (* The byte the loader would place at [vaddr]. *)
  let m =
    List.find
      (fun (m : Loadmap.mapping) ->
        vaddr >= m.Loadmap.vaddr && vaddr < m.Loadmap.vaddr + m.Loadmap.len)
      res.Pagegroup.mappings
  in
  Bytes.get res.Pagegroup.blob (m.Loadmap.file_off + (vaddr - m.Loadmap.vaddr))

let test_group_merges_disjoint_pages () =
  (* The Figure 3 scenario: trampolines spread over three virtual pages
     with disjoint relative extents merge into one physical page. *)
  let ts =
    [ tramp 0x10100 64 'a'; (* page 0x10, offset 0x100 *)
      tramp 0x11800 64 'b'; (* page 0x11, offset 0x800 *)
      tramp 0x12c00 64 'c' (* page 0x12, offset 0xc00 *) ]
  in
  let res = Pagegroup.group ~granularity:1 ~enabled:true ts in
  check_int "virtual blocks" 3 res.Pagegroup.virtual_blocks;
  check_int "one physical page" 1 res.Pagegroup.physical_blocks;
  check_int "blob is one page" 4096 (Bytes.length res.Pagegroup.blob);
  (* Every trampoline byte must still be visible at its virtual address. *)
  Alcotest.(check char) "t1" 'a' (read_mapping res 0x10100);
  Alcotest.(check char) "t2" 'b' (read_mapping res 0x11800);
  Alcotest.(check char) "t3" 'c' (read_mapping res 0x12c00)

let test_group_conflicting_offsets () =
  (* Same relative offset in two pages cannot share a physical page. *)
  let ts = [ tramp 0x10100 64 'a'; tramp 0x11100 64 'b' ] in
  let res = Pagegroup.group ~granularity:1 ~enabled:true ts in
  check_int "two physical pages" 2 res.Pagegroup.physical_blocks;
  Alcotest.(check char) "t1" 'a' (read_mapping res 0x10100);
  Alcotest.(check char) "t2" 'b' (read_mapping res 0x11100)

let test_group_disabled_is_one_to_one () =
  let ts = [ tramp 0x10100 64 'a'; tramp 0x11800 64 'b' ] in
  let res = Pagegroup.group ~granularity:1 ~enabled:false ts in
  check_int "no merging" 2 res.Pagegroup.physical_blocks

let test_group_spanning_trampoline () =
  (* A trampoline across a page boundary becomes two mini-trampolines. *)
  let ts = [ tramp 0x10ff0 64 'x' ] in
  let res = Pagegroup.group ~granularity:1 ~enabled:true ts in
  check_int "two virtual blocks" 2 res.Pagegroup.virtual_blocks;
  Alcotest.(check char) "head" 'x' (read_mapping res 0x10ff0);
  Alcotest.(check char) "tail" 'x' (read_mapping res 0x1102f)

let test_group_granularity_reduces_mappings () =
  let ts =
    List.init 64 (fun i -> tramp (0x100000 + (i * 4096) + (i * 61 mod 4000)) 16 'z')
  in
  let fine = Pagegroup.group ~granularity:1 ~enabled:true ts in
  let coarse = Pagegroup.group ~granularity:16 ~enabled:true ts in
  check_bool "coarser -> fewer mappings" true
    (List.length coarse.Pagegroup.mappings < List.length fine.Pagegroup.mappings);
  check_bool "coarser -> more physical bytes" true
    (Bytes.length coarse.Pagegroup.blob >= Bytes.length fine.Pagegroup.blob)

let test_group_adjacent_mappings_merge () =
  (* Two conflicting pages force two physical pages laid out contiguously;
     if the virtual pages are also adjacent the mappings merge into one. *)
  let ts = [ tramp 0x10100 64 'a'; tramp 0x11100 64 'b' ] in
  let res = Pagegroup.group ~granularity:1 ~enabled:true ts in
  check_int "merged to one mmap" 1 (List.length res.Pagegroup.mappings)

(* Property: under any granularity, every trampoline byte is recoverable
   through the mapping table. *)
let prop_group_preserves_content =
  QCheck.Test.make ~name:"page grouping preserves every trampoline byte"
    ~count:200
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (int_range 0 200) (int_range 1 60))))
    (fun (granularity, specs) ->
      (* Build non-overlapping trampolines from (slot, len) specs. *)
      let ts =
        List.mapi
          (fun i (slot, len) ->
            (0x40000 + (slot * 256), Bytes.make len (Char.chr (65 + (i mod 26)))))
          (List.sort_uniq (fun (a, _) (b, _) -> compare a b) specs)
      in
      let res = Pagegroup.group ~granularity ~enabled:true ts in
      List.for_all
        (fun (at, code) ->
          let ok = ref true in
          Bytes.iteri
            (fun i c -> if read_mapping res (at + i) <> c then ok := false)
            code;
          !ok)
        ts)

(* ------------------------------------------------------------------ *)
(* Trampolines                                                         *)
(* ------------------------------------------------------------------ *)

let decode_all bytes =
  E9_x86.Decode.linear bytes ~pos:0 ~len:(Bytes.length bytes)
  |> List.map (fun (_, d) -> d.E9_x86.Decode.insn)

let test_trampoline_empty_plain () =
  (* A displaced register mov: [mov; jmp back]. *)
  let insn = Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX) in
  let code =
    Trampoline.emit Trampoline.Empty ~at:0x700000 ~insn ~insn_addr:0x400100
      ~insn_len:3
  in
  match decode_all code with
  | [ Insn.Mov _; Insn.Jmp rel ] ->
      check_int "returns after patch site" 0x400103
        (0x700000 + Bytes.length code + rel)
  | _ -> Alcotest.failf "unexpected trampoline shape"

let test_trampoline_displaced_jcc () =
  (* A displaced jcc must branch to the original target and fall through
     to the return jump. *)
  let insn = Insn.Jcc_short (Insn.NE, 0x10) in
  let code =
    Trampoline.emit Trampoline.Empty ~at:0x700000 ~insn ~insn_addr:0x400100
      ~insn_len:2
  in
  match decode_all code with
  | [ Insn.Jcc (Insn.NE, rel); Insn.Jmp back ] ->
      (* original target = 0x400102 + 0x10 *)
      check_int "taken target" (0x400112) (0x700000 + 6 + rel);
      check_int "fallthrough" 0x400102 (0x700000 + 6 + 5 + back)
  | _ -> Alcotest.fail "unexpected shape"

let test_trampoline_displaced_jmp_terminal () =
  (* A displaced unconditional jump needs no return jump. *)
  let insn = Insn.Jmp 0x100 in
  let code =
    Trampoline.emit Trampoline.Empty ~at:0x700000 ~insn ~insn_addr:0x400100
      ~insn_len:5
  in
  match decode_all code with
  | [ Insn.Jmp rel ] ->
      check_int "retargeted" (0x400105 + 0x100) (0x700000 + 5 + rel)
  | _ -> Alcotest.fail "unexpected shape"

let test_trampoline_displaced_ret () =
  let code =
    Trampoline.emit Trampoline.Empty ~at:0x700000 ~insn:Insn.Ret
      ~insn_addr:0x400100 ~insn_len:1
  in
  match decode_all code with
  | [ Insn.Ret ] -> ()
  | _ -> Alcotest.fail "ret should be terminal"

let test_trampoline_rip_relative_retargeted () =
  (* mov 0x100(%rip),%rax displaced: the new displacement must reach the
     same absolute address. *)
  let insn = Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Mem (Insn.rip_mem 0x100)) in
  let insn_addr = 0x400100 and insn_len = 7 in
  let orig_target = insn_addr + insn_len + 0x100 in
  let code =
    Trampoline.emit Trampoline.Empty ~at:0x700000 ~insn ~insn_addr ~insn_len
  in
  match decode_all code with
  | [ Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Mem m); Insn.Jmp _ ] ->
      check_bool "still rip-relative" true m.Insn.rip_rel;
      check_int "same absolute target" orig_target (0x700000 + 7 + m.Insn.disp)
  | _ -> Alcotest.fail "unexpected shape"

let test_trampoline_size_stable () =
  (* emit length must not depend on the trampoline's address. *)
  let insn = Insn.Jcc (Insn.E, 64) in
  let l1 =
    Bytes.length
      (Trampoline.emit Trampoline.Empty ~at:0x500000 ~insn ~insn_addr:0x400100
         ~insn_len:6)
  in
  let l2 =
    Bytes.length
      (Trampoline.emit Trampoline.Empty ~at:0x41000000 ~insn
         ~insn_addr:0x400100 ~insn_len:6)
  in
  check_int "length stable" l1 l2;
  check_int "size agrees" l1
    (Trampoline.size Trampoline.Empty ~insn ~insn_addr:0x400100 ~insn_len:6)

let test_trampoline_lowfat_shape () =
  let insn =
    Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:8 ()), Insn.Reg Reg.RCX)
  in
  let code =
    Trampoline.emit Trampoline.Lowfat_check ~at:0x700000 ~insn
      ~insn_addr:0x400100 ~insn_len:4
  in
  match decode_all code with
  | [ Insn.Push Reg.RDI; Insn.Lea (Reg.RDI, m); Insn.Int n; Insn.Pop Reg.RDI;
      Insn.Mov _; Insn.Jmp _ ] ->
      check_int "check hostcall" E9_emu.Hostcall.check n;
      check_bool "lea of the written operand" true
        (m.Insn.base = Some Reg.RBX && m.Insn.disp = 8)
  | _ -> Alcotest.fail "unexpected lowfat trampoline shape"

let test_trampoline_rejects_nonwrite_lowfat () =
  Alcotest.check_raises "reject"
    (Invalid_argument "Trampoline: Lowfat_check on a non-writing instruction")
    (fun () ->
      ignore
        (Trampoline.emit Trampoline.Lowfat_check ~at:0x700000 ~insn:Insn.Ret
           ~insn_addr:0x400100 ~insn_len:1))

(* ------------------------------------------------------------------ *)
(* Whole-binary rewriting                                              *)
(* ------------------------------------------------------------------ *)

let profile ?(seed = 42L) ?(pie = false) ?(iterations = 120) () =
  { Codegen.default_profile with Codegen.seed; pie; iterations; functions = 60 }

let rewrite ?options elf select template =
  Rewriter.run ?options elf ~select ~template:(fun _ -> template)

let run = Machine.run

let test_rewrite_a1_equivalent () =
  let elf = Codegen.generate (profile ()) in
  let orig = run elf in
  let r = rewrite elf Frontend.select_jumps Trampoline.Empty in
  let patched = run r.Rewriter.output in
  check_bool "success high" true (Stats.succ_pct r.Rewriter.stats > 99.0);
  check_bool "equivalent" true (Machine.equivalent orig patched);
  check_bool "patched is slower" true
    (patched.Cpu.cycles > orig.Cpu.cycles)

let test_rewrite_a2_equivalent () =
  let elf = Codegen.generate (profile ~seed:43L ()) in
  let orig = run elf in
  let r = rewrite elf Frontend.select_heap_writes Trampoline.Empty in
  let patched = run r.Rewriter.output in
  check_bool "equivalent" true (Machine.equivalent orig patched)

let test_rewrite_pie_higher_base () =
  (* §5.1: PIE doubles the valid displacement space; Base% must rise. *)
  let mk pie = Codegen.generate { (profile ()) with Codegen.pie } in
  let base pie =
    let r = rewrite (mk pie) Frontend.select_jumps Trampoline.Empty in
    Stats.base_pct r.Rewriter.stats
  in
  check_bool "PIE base% higher" true (base true > base false +. 10.0)

let test_rewrite_shared_object () =
  let elf =
    Codegen.generate { (profile ~seed:44L ()) with Codegen.shared_object = true }
  in
  let orig = run elf in
  let options =
    { Rewriter.default_options with Rewriter.reserve_below_base = true }
  in
  let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
  check_bool "equivalent" true (Machine.equivalent orig (run r.Rewriter.output));
  (* DSO mode must not use the space below the load base. *)
  check_bool "patching still succeeds" true
    (Stats.succ_pct r.Rewriter.stats > 95.0)

let test_rewrite_counter_instrumentation () =
  (* Counter trampolines must fire once per dynamic execution of each
     patched jump. Cross-check against an unpatched run's statistics. *)
  let elf = Codegen.generate (profile ~seed:45L ()) in
  let orig = run elf in
  let r = rewrite elf Frontend.select_jumps Trampoline.Counter in
  let patched = run r.Rewriter.output in
  check_bool "equivalent" true (Machine.equivalent orig patched);
  let total_hits = List.fold_left (fun a (_, n) -> a + n) 0 patched.Cpu.counters in
  check_bool "counters fired" true (total_hits > 0);
  check_bool "sites with hits <= patched sites" true
    (List.length patched.Cpu.counters
     <= List.length r.Rewriter.patched_sites)

let test_rewrite_b0_only () =
  (* Signal-handler-only patching: correct but orders of magnitude slower
     (§2.1.1). *)
  let elf = Codegen.generate (profile ~seed:46L ~iterations:30 ()) in
  let orig = run elf in
  let options =
    { Rewriter.default_options with
      Rewriter.tactics =
        { Tactics.default_options with
          Tactics.enable_t1 = false;
          enable_t2 = false;
          enable_t3 = false;
          b0_fallback = true } }
  in
  (* Force B0 by making the jump tactics fail: patch sites of length < 5
     would normally use B2 — instead select everything and check B0 shows
     up in the mix; simpler: verify a B0-heavy run stays correct. *)
  let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
  let patched = run r.Rewriter.output in
  check_bool "equivalent" true (Machine.equivalent orig patched);
  check_bool "B0 used" true (r.Rewriter.stats.Stats.b0 > 0);
  check_bool "traps taken" true (patched.Cpu.traps > 0);
  check_bool "B0 is much slower" true
    (patched.Cpu.cycles > 3 * orig.Cpu.cycles)

let test_rewrite_tactic_ablation_monotone () =
  (* §6.1: each tactic strictly adds coverage. *)
  let elf = Codegen.generate (profile ~seed:47L ()) in
  let succ ~t1 ~t2 ~t3 =
    let options =
      { Rewriter.default_options with
        Rewriter.tactics =
          { Tactics.default_options with
            Tactics.enable_t1 = t1;
            enable_t2 = t2;
            enable_t3 = t3 } }
    in
    let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
    Stats.succ_pct r.Rewriter.stats
  in
  let base = succ ~t1:false ~t2:false ~t3:false in
  let with_t1 = succ ~t1:true ~t2:false ~t3:false in
  let with_t2 = succ ~t1:true ~t2:true ~t3:false in
  let full = succ ~t1:true ~t2:true ~t3:true in
  check_bool "T1 adds" true (with_t1 > base);
  check_bool "T2 adds" true (with_t2 > with_t1);
  check_bool "T3 adds" true (full > with_t2);
  check_bool "full is complete" true (full >= 99.9)

let test_rewrite_all_tactics_exercised () =
  let elf = Codegen.generate (profile ~seed:48L ()) in
  let r = rewrite elf Frontend.select_jumps Trampoline.Empty in
  let s = r.Rewriter.stats in
  check_bool "B1" true (s.Stats.b1 > 0);
  check_bool "B2" true (s.Stats.b2 > 0);
  check_bool "T1" true (s.Stats.t1 > 0);
  check_bool "T3" true (s.Stats.t3 > 0)

let test_rewrite_grouping_shrinks_file () =
  let elf = Codegen.generate (profile ~seed:49L ()) in
  let size grouping =
    let options = { Rewriter.default_options with Rewriter.grouping } in
    let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
    (r.Rewriter.output_size, r.Rewriter.physical_blocks, r.Rewriter.virtual_blocks)
  in
  let grouped, pb, vb = size true in
  let naive, pb', vb' = size false in
  check_bool "grouping shrinks output" true (grouped < naive);
  check_int "same virtual blocks" vb vb';
  check_bool "fewer physical blocks" true (pb < pb');
  check_bool "naive is one-to-one" true (pb' = vb')

let test_rewrite_granularity_tradeoff () =
  let elf = Codegen.generate (profile ~seed:50L ()) in
  let stats granularity =
    let options = { Rewriter.default_options with Rewriter.granularity } in
    let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
    (r.Rewriter.mappings, r.Rewriter.output_size)
  in
  let m1, s1 = stats 1 in
  let m16, s16 = stats 16 in
  check_bool "coarser M -> fewer mappings" true (m16 < m1);
  check_bool "coarser M -> bigger file" true (s16 >= s1)

let test_rewrite_partial_instrumentation () =
  (* §5.1 "Mixing Patched/Non-Patched Code": patching only part of the
     text must still be correct. *)
  let elf = Codegen.generate (profile ~seed:51L ()) in
  let orig = run elf in
  let text, _ = Frontend.disassemble elf in
  let mid = text.Frontend.base + (text.Frontend.size / 2) in
  let r =
    Rewriter.run elf
      ~select:(fun s -> Frontend.select_jumps s && s.Frontend.addr < mid)
      ~template:(fun _ -> Trampoline.Empty)
  in
  check_bool "equivalent" true (Machine.equivalent orig (run r.Rewriter.output))

let test_rewrite_bss_limits_coverage () =
  (* Limitation L1: a huge .bss squeezes the trampoline address space. *)
  let mk bss_mb = Codegen.generate { (profile ~seed:52L ()) with Codegen.bss_mb } in
  let succ bss =
    let r = rewrite (mk bss) Frontend.select_jumps Trampoline.Empty in
    Stats.succ_pct r.Rewriter.stats
  in
  let unconstrained = succ 0 in
  let constrained = succ 1900 in
  check_bool "L1 lowers coverage" true (constrained < unconstrained);
  check_bool "still mostly patched" true (constrained > 90.0)

(* An executable whose only segment and [.text] hold [asm]'s code,
   entered at its first byte. *)
let elf_of_asm asm =
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:(Asm.base asm) in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load;
        prot = Elf_file.prot_rx;
        vaddr = Asm.base asm;
        offset = 0;
        filesz = 0;
        memsz = Bytes.length code;
        align = 4096 }
      ~content:code
  in
  elf.Elf_file.sections <-
    [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6;
        addr = Asm.base asm; offset = off; size = Bytes.length code } ];
  elf

let test_rewrite_custom_patch () =
  (* Binary patching (Example 3.1 flavour): replace one instruction's
     behaviour entirely via a Replace template. *)
  let asm = Asm.create ~base:0x400000 in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 1));
  (* the instruction to patch: overwrite rbx with 2 *)
  let patch_site = Asm.here asm in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 2));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg Reg.RBX));
  Asm.ins asm Insn.Syscall;
  let elf = elf_of_asm asm in
  let template =
    Trampoline.Replace
      (fun asm ~ret ->
        Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 99));
        Asm.ins asm (Insn.Jmp (ret - (Asm.here asm + 5))))
  in
  let r =
    Rewriter.run elf
      ~select:(fun s -> s.Frontend.addr = patch_site)
      ~template:(fun _ -> template)
  in
  check_int "one site patched" 1 (List.length r.Rewriter.patched_sites);
  match (run r.Rewriter.output).Cpu.outcome with
  | Cpu.Exited 99 -> ()
  | o ->
      Alcotest.failf "expected exit 99, got %s"
        (match o with
        | Cpu.Exited n -> string_of_int n
        | Cpu.Fault (_, m) -> "fault: " ^ m
        | Cpu.Violation _ -> "violation"
        | Cpu.Out_of_fuel -> "fuel")

(* Compilers pad with 10-15-byte nops (GCC's 11-byte form is
   [66 66 2e 0f 1f 84 00 00 00 00 00]). Patching one displaces it into a
   trampoline, which re-encodes it from its decoded form: the rewrite
   must verify and still run. *)
let test_rewrite_displaces_long_nop () =
  let asm = Asm.create ~base:0x400000 in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Imm 7));
  let nop_site = Asm.here asm in
  Asm.ins_raw asm "\x66\x66\x2e\x0f\x1f\x84\x00\x00\x00\x00\x00";
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg Reg.RBX));
  Asm.ins asm Insn.Syscall;
  let elf = elf_of_asm asm in
  let r =
    Rewriter.run elf
      ~select:(fun s -> s.Frontend.insn = Insn.Nop 11)
      ~template:(fun _ -> Trampoline.Counter)
  in
  Alcotest.(check (list int)) "the long nop is patched" [ nop_site ]
    (List.map fst r.Rewriter.patched_sites);
  (match E9_check.Static.verify ~original:elf r.Rewriter.output with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %a" E9_check.Static.pp_error e);
  match (run r.Rewriter.output).Cpu.outcome with
  | Cpu.Exited 7 -> ()
  | _ -> Alcotest.fail "patched program did not exit 7"

(* A displaced [call] whose target lies beyond rel32 reach of every
   trampoline placement cannot be re-encoded. The rewrite stops with a
   typed error naming the site, not an untyped encoder exception. *)
let test_rewrite_unencodable_site_typed () =
  let asm = Asm.create ~base:0x400000 in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 0));
  Asm.ins asm Insn.Syscall;
  let call_site = Asm.here asm in
  Asm.ins asm (Insn.Call 0x7fff_0000);
  let elf = elf_of_asm asm in
  match
    Rewriter.run elf
      ~select:(fun s -> s.Frontend.addr = call_site)
      ~template:(fun _ -> Trampoline.Empty)
  with
  | _ -> Alcotest.fail "expected Rewriter.Error"
  | exception Rewriter.Error m ->
      let site = Printf.sprintf "0x%x" call_site in
      check_bool
        (Printf.sprintf "%S names site %s" m site)
        true
        (String.length m >= String.length site
        && List.exists
             (fun i -> String.sub m i (String.length site) = site)
             (List.init (String.length m - String.length site + 1) Fun.id))

(* The headline property: for random programs and random patch sets, the
   patched binary is observationally equivalent to the original — without
   the rewriter ever seeing control flow information. *)
let prop_rewrite_equivalence =
  QCheck.Test.make ~name:"rewriting preserves behaviour (random programs)"
    ~count:12
    QCheck.(pair (int_bound 10000) bool)
    (fun (seed, pie) ->
      let prof =
        { Codegen.default_profile with
          Codegen.seed = Int64.of_int (seed + 7);
          pie;
          functions = 30;
          iterations = 60 }
      in
      let elf = Codegen.generate prof in
      let orig = run elf in
      (match orig.Cpu.outcome with
      | Cpu.Exited _ -> ()
      | _ -> QCheck.Test.fail_report "original program did not exit");
      List.for_all
        (fun select ->
          let r = Rewriter.run elf ~select ~template:(fun _ -> Trampoline.Empty) in
          Machine.equivalent orig (run r.Rewriter.output))
        [ Frontend.select_jumps;
          Frontend.select_heap_writes;
          (fun s -> Frontend.select_jumps s || Frontend.select_heap_writes s) ])

let suites =
  [ ( "core.pun",
      [ Alcotest.test_case "B1 window" `Quick test_pun_window_b1;
        Alcotest.test_case "paper §2.1.3 example" `Quick
          test_pun_window_paper_example;
        Alcotest.test_case "positive window" `Quick test_pun_window_positive;
        Alcotest.test_case "one free byte" `Quick test_pun_window_one_free_byte;
        Alcotest.test_case "zero free bytes" `Quick test_pun_window_zero_free;
        Alcotest.test_case "rel32 roundtrip" `Quick test_rel32_roundtrip;
        Alcotest.test_case "rel32 range" `Quick test_rel32_out_of_range;
        QCheck_alcotest.to_alcotest prop_pun_window_correct ] );
    ( "core.lock",
      [ Alcotest.test_case "basic" `Quick test_lock_basic;
        Alcotest.test_case "out of range" `Quick test_lock_out_of_range_ignored;
        Alcotest.test_case "idempotent" `Quick test_lock_idempotent ] );
    ( "core.layout",
      [ Alcotest.test_case "avoids segments" `Quick test_layout_avoids_segments;
        Alcotest.test_case "rejects negative/null" `Quick
          test_layout_rejects_negative_and_null;
        Alcotest.test_case "DSO reserve below base" `Quick
          test_layout_reserve_below_base;
        Alcotest.test_case "alloc reserves" `Quick test_layout_alloc_reserves;
        Alcotest.test_case "alloc_at/release" `Quick
          test_layout_alloc_at_and_release;
        Alcotest.test_case "strided probe" `Quick test_layout_strided_probe;
        Alcotest.test_case "block rounding" `Quick test_layout_block_rounding;
        Alcotest.test_case "next-fit cursor" `Quick test_layout_next_fit_cursor ]
    );
    ( "core.pagegroup",
      [ Alcotest.test_case "merges disjoint pages (Fig 3)" `Quick
          test_group_merges_disjoint_pages;
        Alcotest.test_case "conflicting offsets split" `Quick
          test_group_conflicting_offsets;
        Alcotest.test_case "disabled = one-to-one" `Quick
          test_group_disabled_is_one_to_one;
        Alcotest.test_case "spanning trampoline" `Quick
          test_group_spanning_trampoline;
        Alcotest.test_case "granularity tradeoff" `Quick
          test_group_granularity_reduces_mappings;
        Alcotest.test_case "adjacent mappings merge" `Quick
          test_group_adjacent_mappings_merge;
        QCheck_alcotest.to_alcotest prop_group_preserves_content ] );
    ( "core.trampoline",
      [ Alcotest.test_case "empty template" `Quick test_trampoline_empty_plain;
        Alcotest.test_case "displaced jcc" `Quick test_trampoline_displaced_jcc;
        Alcotest.test_case "displaced jmp terminal" `Quick
          test_trampoline_displaced_jmp_terminal;
        Alcotest.test_case "displaced ret" `Quick test_trampoline_displaced_ret;
        Alcotest.test_case "rip-relative retargeted" `Quick
          test_trampoline_rip_relative_retargeted;
        Alcotest.test_case "size stable" `Quick test_trampoline_size_stable;
        Alcotest.test_case "lowfat shape" `Quick test_trampoline_lowfat_shape;
        Alcotest.test_case "lowfat rejects non-write" `Quick
          test_trampoline_rejects_nonwrite_lowfat ] );
    ( "core.rewriter",
      [ Alcotest.test_case "A1 equivalent" `Quick test_rewrite_a1_equivalent;
        Alcotest.test_case "A2 equivalent" `Quick test_rewrite_a2_equivalent;
        Alcotest.test_case "PIE raises Base%" `Quick test_rewrite_pie_higher_base;
        Alcotest.test_case "shared object mode" `Quick test_rewrite_shared_object;
        Alcotest.test_case "counter instrumentation" `Quick
          test_rewrite_counter_instrumentation;
        Alcotest.test_case "B0 fallback" `Quick test_rewrite_b0_only;
        Alcotest.test_case "tactic ablation monotone" `Quick
          test_rewrite_tactic_ablation_monotone;
        Alcotest.test_case "all tactics exercised" `Quick
          test_rewrite_all_tactics_exercised;
        Alcotest.test_case "grouping shrinks file" `Quick
          test_rewrite_grouping_shrinks_file;
        Alcotest.test_case "granularity tradeoff" `Quick
          test_rewrite_granularity_tradeoff;
        Alcotest.test_case "partial instrumentation" `Quick
          test_rewrite_partial_instrumentation;
        Alcotest.test_case "L1: big .bss limits coverage" `Quick
          test_rewrite_bss_limits_coverage;
        Alcotest.test_case "custom binary patch" `Quick test_rewrite_custom_patch;
        Alcotest.test_case "long nop displaced" `Quick
          test_rewrite_displaces_long_nop;
        Alcotest.test_case "unencodable site is a typed error" `Quick
          test_rewrite_unencodable_site_typed;
        QCheck_alcotest.to_alcotest prop_rewrite_equivalence ] ) ]

(* ------------------------------------------------------------------ *)
(* The integrated loader stub (§5.1)                                   *)
(* ------------------------------------------------------------------ *)

let test_stub_loader_equivalent () =
  (* The injected x86 loader must produce the same behaviour as the
     host-side table loader: the patched program opens its own file and
     mmaps the trampoline pages itself. *)
  let elf = Codegen.generate (profile ~seed:60L ()) in
  let orig = run elf in
  let options = { Rewriter.default_options with Rewriter.loader = Rewriter.Stub } in
  let r = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
  (* no mapping-table section: the stub does the work *)
  check_bool "no mmap section" true
    (Elf_file.find_section r.Rewriter.output Elf_file.mmap_section_name = None);
  check_bool "entry moved to the stub" true
    (r.Rewriter.output.Elf_file.entry <> elf.Elf_file.entry);
  let patched = run r.Rewriter.output in
  check_bool "equivalent" true (Machine.equivalent orig patched)

let test_stub_loader_counts_mmaps () =
  (* The stub performs one mmap syscall per mapping record; they surface
     as extra executed instructions before the real entry. *)
  let elf = Codegen.generate (profile ~seed:61L ()) in
  let table =
    rewrite elf Frontend.select_jumps Trampoline.Empty
  in
  let options = { Rewriter.default_options with Rewriter.loader = Rewriter.Stub } in
  let stub = rewrite ~options elf Frontend.select_jumps Trampoline.Empty in
  let rt = run table.Rewriter.output and rs = run stub.Rewriter.output in
  check_bool "both equivalent" true (Machine.equivalent rt rs);
  check_bool "stub executes extra startup instructions" true
    (rs.Cpu.insns > rt.Cpu.insns + (8 * table.Rewriter.mappings))

let suites =
  suites
  @ [ ( "core.loader_stub",
        [ Alcotest.test_case "stub loader equivalent" `Quick
            test_stub_loader_equivalent;
          Alcotest.test_case "stub performs the mmaps" `Quick
            test_stub_loader_counts_mmaps ] ) ]

(* ------------------------------------------------------------------ *)
(* Fault hardening (DESIGN.md §11)                                     *)
(* ------------------------------------------------------------------ *)

module Fault = E9_fault.Fault

let test_alloc_exhaustion_degrades_to_b0 () =
  (* Outcome (a): with every jump-tactic allocation refused and
     b0_fallback on, every site lands on B0 and the binary still runs
     identically (only slower, through the trap handler). *)
  let elf = Codegen.generate (profile ~seed:62L ~iterations:30 ()) in
  let orig = run elf in
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
  check_int "no failed sites" 0 s.Stats.failed;
  check_bool "sites were patched" true (Stats.total s > 0);
  check_int "100% B0" (Stats.total s) s.Stats.b0;
  check_bool "alloc faults fired" true (Fault.fired fault Fault.Alloc > 0);
  (match E9_check.Static.verify ~original:elf r.Rewriter.output with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "degraded output rejected: %a" E9_check.Static.pp_error e);
  let patched = run r.Rewriter.output in
  check_bool "equivalent under full degradation" true
    (Machine.equivalent orig patched);
  check_bool "trap handler exercised" true (patched.Cpu.traps > 0);
  (* The emitted trap table round-trips through the Loadmap codec and
     covers exactly the B0 sites. *)
  let sect =
    Option.get (Elf_file.find_section r.Rewriter.output Elf_file.trap_section_name)
  in
  let raw = Elf_file.section_bytes r.Rewriter.output sect in
  let traps = Loadmap.decode_traps raw in
  check_int "one trap record per B0 site" s.Stats.b0 (List.length traps);
  Alcotest.(check bytes) "trap table round-trips" raw
    (Loadmap.encode_traps traps);
  let patched_addrs = List.map fst r.Rewriter.patched_sites in
  List.iter
    (fun (t : Loadmap.trap) ->
      check_bool "trap covers a patched site" true
        (List.mem t.Loadmap.patch_addr patched_addrs))
    traps

let test_b0_exhaustion_without_fallback_accounts () =
  (* Outcome (b): same starvation but no B0 fallback — every site is a
     per-site failure in Stats, and the (unpatched) output still passes
     static verification. *)
  let elf = Codegen.generate (profile ~seed:63L ~iterations:30 ()) in
  let fault = Fault.create (Fault.parse "alloc@0+") in
  let r =
    Rewriter.run ~fault elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  let s = r.Rewriter.stats in
  check_int "nothing succeeded" 0 (Stats.succeeded s);
  check_bool "failures accounted" true (s.Stats.failed > 0);
  match E9_check.Static.verify ~original:elf r.Rewriter.output with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "accounted output rejected: %a" E9_check.Static.pp_error e

let test_shard_fault_typed_no_partial () =
  (* Outcome (c): the tactic search dying mid-run surfaces as a typed
     Rewriter.Error, identically for every jobs value, and the input is
     untouched. *)
  let elf = Codegen.generate (profile ~seed:64L ()) in
  let snapshot = Elf_file.to_bytes elf in
  let messages =
    List.map
      (fun jobs ->
        let fault = Fault.create (Fault.parse "shard@0") in
        match
          Rewriter.run ~fault ~jobs elf
            ~select:Frontend.select_jumps ~template:(fun _ -> Trampoline.Empty)
        with
        | _ -> Alcotest.fail "expected Rewriter.Error"
        | exception Rewriter.Error m -> m)
      [ 1; 2; 4 ]
  in
  (match messages with
  | m :: rest ->
      List.iter
        (fun m' -> Alcotest.(check string) "same typed error" m m')
        rest
  | [] -> assert false);
  Alcotest.(check bytes) "input untouched" snapshot (Elf_file.to_bytes elf)

let test_stub_collision_typed_before_mutation () =
  let elf = Codegen.generate (profile ~seed:65L ()) in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_r;
         vaddr = E9_core.Loader_stub.home;
         offset = 0;
         filesz = 0;
         memsz = 4096;
         align = 4096 }
       ~content:(Bytes.make 16 '\x00'));
  let snapshot = Elf_file.to_bytes elf in
  let options =
    { Rewriter.default_options with Rewriter.loader = Rewriter.Stub }
  in
  (match
     Rewriter.run ~options elf ~select:Frontend.select_jumps
       ~template:(fun _ -> Trampoline.Empty)
   with
  | _ -> Alcotest.fail "expected Rewriter.Error"
  | exception Rewriter.Error m ->
      check_bool "message names the collision" true
        (String.length m >= 8 && String.sub m 0 8 = "Rewriter"));
  Alcotest.(check bytes) "input untouched by refusal" snapshot
    (Elf_file.to_bytes elf);
  (* Table mode is still happy with the same input. *)
  let r =
    Rewriter.run elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  check_bool "table-mode rewrite succeeds" true
    (Stats.succ_pct r.Rewriter.stats > 99.0)

let test_stub_home_reserved () =
  (* The stub's landing zone is pre-reserved in the trampoline layout:
     in the output, the only segment intersecting it is the stub itself. *)
  let elf = Codegen.generate (profile ~seed:66L ()) in
  let options =
    { Rewriter.default_options with Rewriter.loader = Rewriter.Stub }
  in
  let r =
    rewrite ~options elf Frontend.select_jumps Trampoline.Empty
  in
  let home = E9_core.Loader_stub.home
  and span = E9_core.Loader_stub.home_span in
  List.iter
    (fun (s : Elf_file.segment) ->
      if s.Elf_file.vaddr < home + span && s.Elf_file.vaddr + s.Elf_file.memsz > home
      then check_int "only the stub lives in its home span" home s.Elf_file.vaddr)
    r.Rewriter.output.Elf_file.segments;
  check_bool "stub segment exists" true
    (Elf_file.segment_at r.Rewriter.output home <> None)

let suites =
  suites
  @ [ ( "core.fault",
        [ Alcotest.test_case "alloc exhaustion degrades to 100% B0" `Quick
            test_alloc_exhaustion_degrades_to_b0;
          Alcotest.test_case "starvation without fallback is accounted" `Quick
            test_b0_exhaustion_without_fallback_accounts;
          Alcotest.test_case "shard fault is typed, jobs-invariant" `Quick
            test_shard_fault_typed_no_partial;
          Alcotest.test_case "stub collision refused before mutation" `Quick
            test_stub_collision_typed_before_mutation;
          Alcotest.test_case "stub home reserved from trampolines" `Quick
            test_stub_home_reserved ] ) ]

(* ------------------------------------------------------------------ *)
(* Pluggable frontends (§2.2): partial disassembly stays correct       *)
(* ------------------------------------------------------------------ *)

let test_recursive_frontend_partial_but_correct () =
  (* Recursive descent cannot see through indirect jumps, so it discovers
     fewer instructions than the linear sweep — yet the rewrite stays
     behaviour-preserving because E9Patch's patching is local. *)
  let elf = Codegen.generate (profile ~seed:70L ()) in
  let orig = run elf in
  let _, linear_sites = Frontend.disassemble elf in
  let _, rec_sites = Frontend.disassemble_recursive elf in
  check_bool "recursive finds a real subset" true
    (List.length rec_sites > 50
    && List.length rec_sites < List.length linear_sites);
  (* Every recursively-found site must agree with the linear ground truth
     (linear is exact on generated binaries). *)
  let by_addr = Hashtbl.create 1024 in
  List.iter
    (fun (s : Frontend.site) -> Hashtbl.replace by_addr s.Frontend.addr s.Frontend.len)
    linear_sites;
  List.iter
    (fun (s : Frontend.site) ->
      match Hashtbl.find_opt by_addr s.Frontend.addr with
      | Some len -> check_int "site agrees with linear" len s.Frontend.len
      | None -> Alcotest.failf "recursive found a bogus site 0x%x" s.Frontend.addr)
    rec_sites;
  let r =
    Rewriter.run ~frontend:Frontend.disassemble_recursive elf
      ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Empty)
  in
  check_bool "patched something" true (Stats.total r.Rewriter.stats > 0);
  check_bool "partial info, still equivalent" true
    (Machine.equivalent orig (run r.Rewriter.output))

let suites =
  suites
  @ [ ( "core.frontends",
        [ Alcotest.test_case "recursive descent: partial but correct" `Quick
            test_recursive_frontend_partial_but_correct ] ) ]

(* ------------------------------------------------------------------ *)
(* §5.1: mixing patched and non-patched binaries in one process        *)
(* ------------------------------------------------------------------ *)

let test_mixing_patched_and_unpatched_binaries () =
  (* An executable calling into a shared object through its import table.
     Because E9Patch never moves code, each binary can be rewritten
     independently — no "callback problem", no need to rewrite the whole
     dependency tree. All four patch/no-patch combinations must behave
     identically. *)
  let lib_prof =
    { Codegen.default_profile with
      Codegen.name = "libfoo"; seed = 81L; functions = 24; iterations = 1 }
  in
  let lib, fns = Codegen.generate_library lib_prof in
  let imports = Array.sub fns 0 4 in
  let exe_prof =
    { Codegen.default_profile with
      Codegen.name = "exe"; seed = 82L; functions = 24; iterations = 80 }
  in
  let exe = Codegen.generate_with_imports exe_prof ~imports in
  let orig = Machine.run ~libs:[ lib ] exe in
  (match orig.Cpu.outcome with
  | Cpu.Exited _ -> ()
  | _ -> Alcotest.fail "two-binary process did not run");
  let patch ?(options = Rewriter.default_options) elf =
    (Rewriter.run ~options elf ~select:Frontend.select_jumps
       ~template:(fun _ -> Trampoline.Counter))
      .Rewriter.output
  in
  let dso_options =
    { Rewriter.default_options with Rewriter.reserve_below_base = true }
  in
  let combos =
    [ ("patched exe, original lib", patch exe, lib);
      ("original exe, patched lib", exe, patch ~options:dso_options lib);
      ("both patched", patch exe, patch ~options:dso_options lib) ]
  in
  List.iter
    (fun (name, e, l) ->
      check_bool name true (Machine.equivalent orig (Machine.run ~libs:[ l ] e)))
    combos

let test_library_calls_actually_cross () =
  (* Sanity: instrumenting only the library still counts events, proving
     the exe really calls into it. *)
  let lib_prof =
    { Codegen.default_profile with
      Codegen.name = "libbar"; seed = 83L; functions = 24; iterations = 1 }
  in
  let lib, fns = Codegen.generate_library lib_prof in
  let exe_prof =
    { Codegen.default_profile with
      Codegen.name = "exe2"; seed = 84L; functions = 24; iterations = 60 }
  in
  let exe = Codegen.generate_with_imports exe_prof ~imports:(Array.sub fns 0 4) in
  let options =
    { Rewriter.default_options with Rewriter.reserve_below_base = true }
  in
  let r =
    Rewriter.run ~options lib ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Counter)
  in
  let run = Machine.run ~libs:[ r.Rewriter.output ] exe in
  check_bool "library trampolines fired" true (run.Cpu.counters <> [])

let suites =
  suites
  @ [ ( "core.mixing",
        [ Alcotest.test_case "patched/unpatched binaries mix" `Quick
            test_mixing_patched_and_unpatched_binaries;
          Alcotest.test_case "cross-binary calls instrumented" `Quick
            test_library_calls_actually_cross ] ) ]

(* ------------------------------------------------------------------ *)
(* Call_fn: instrumentation functions inside the patched binary        *)
(* ------------------------------------------------------------------ *)

let test_call_fn_instrumentation () =
  (* The E9Tool mechanism: compile an instrumentation function into the
     binary (extra segment), have every jump's trampoline call it. The
     function counts invocations in its own data page — fully in-guest,
     no host calls. *)
  let elf = Codegen.generate (profile ~seed:90L ()) in
  let orig = run elf in
  (* Append the counter page and the function to a copy of the input. *)
  let input = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let counter_addr = 0x30000000 in
  ignore
    (Elf_file.add_segment input
       { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rw;
         vaddr = counter_addr; offset = 0; filesz = 0; memsz = 4096;
         align = 4096 }
       ~content:(Bytes.make 8 '\000'));
  let fn_addr = 0x30001000 in
  let fn =
    let asm = Asm.create ~base:fn_addr in
    (* rax is caller-saved by the trampoline bracket, safe to clobber *)
    Asm.ins asm (Insn.Movabs (Reg.RAX, Int64.of_int counter_addr));
    Asm.ins asm
      (Insn.Alu (Insn.Add, Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RAX ()), Insn.Imm 1));
    Asm.ins asm Insn.Ret;
    Asm.assemble asm
  in
  ignore
    (Elf_file.add_segment input
       { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx;
         vaddr = fn_addr; offset = 0; filesz = 0; memsz = Bytes.length fn;
         align = 4096 }
       ~content:fn);
  let r =
    Rewriter.run input ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Call_fn fn_addr)
  in
  check_bool "high coverage" true (Stats.succ_pct r.Rewriter.stats > 99.0);
  (* Run on a hand-built machine so the final memory is inspectable. *)
  let m = Machine.boot r.Rewriter.output in
  let res =
    Cpu.run m.Machine.space ~entry:m.Machine.entry
      ~stack_top:Machine.stack_top ~traps:m.Machine.traps
      ~allocator:
        (Cpu.bump_allocator m.Machine.space ~heap_base:Machine.heap_base)
  in
  check_bool "equivalent" true (Machine.equivalent orig res);
  let count = E9_vm.Space.read_u64 m.Machine.space counter_addr in
  check_bool "function counted every dynamic jump" true (count > 500);
  (* Sanity: roughly one count per far-jump pair introduced by patching. *)
  check_bool "count is plausible" true (count < res.Cpu.insns)

let suites =
  suites
  @ [ ( "core.call_fn",
        [ Alcotest.test_case "in-binary instrumentation function" `Quick
            test_call_fn_instrumentation ] ) ]

(* ------------------------------------------------------------------ *)
(* Corner cases                                                        *)
(* ------------------------------------------------------------------ *)

let test_rewrite_nothing_selected () =
  (* Zero patch locations: the output must be byte-identical text and
     carry no trampoline machinery. *)
  let elf = Codegen.generate (profile ~seed:91L ()) in
  let r = Rewriter.run elf ~select:(fun _ -> false) ~template:(fun _ -> Trampoline.Empty) in
  check_int "no sites" 0 (Stats.total r.Rewriter.stats);
  check_bool "no mapping section" true
    (Elf_file.find_section r.Rewriter.output Elf_file.mmap_section_name = None);
  (* Serialization regenerates the section string table (a few dozen
     bytes); no trampoline data may appear beyond that. *)
  check_bool "no trampoline growth" true
    (r.Rewriter.output_size - r.Rewriter.input_size < 128);
  check_int "no trampoline bytes" 0 r.Rewriter.trampoline_bytes;
  let orig = run elf and patched = run r.Rewriter.output in
  check_bool "equivalent" true (Machine.equivalent orig patched)

let test_patch_site_at_text_end () =
  (* A short jump as the very last instruction: its pun would need bytes
     beyond the section — every pun tactic must fail gracefully and B0
     still works. *)
  let asm = Asm.create ~base:0x400000 in
  let fin = Asm.fresh_label asm "fin" in
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 5));
  Asm.place asm fin;
  Asm.ins asm Insn.Syscall;
  let tail = Asm.here asm in
  Asm.jmp_short asm fin;
  (* jmp back to the syscall: never reached after exit, but patchable *)
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:0x400000 in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx;
        vaddr = 0x400000; offset = 0; filesz = 0; memsz = Bytes.length code;
        align = 4096 }
      ~content:code
  in
  elf.Elf_file.sections <-
    [ { Elf_file.name = ".text"; sh_type = 1; sh_flags = 6; addr = 0x400000;
        offset = off; size = Bytes.length code } ];
  let r =
    Rewriter.run elf ~select:(fun s -> s.Frontend.addr = tail)
      ~template:(fun _ -> Trampoline.Empty)
  in
  (* The 2-byte jump at the end: B2/T1 cannot read fixed bytes beyond the
     text; T2 has no successor; T3 has no later victim. *)
  check_int "pun tactics fail at text end" 0 (Stats.succeeded r.Rewriter.stats);
  let options =
    { Rewriter.default_options with
      Rewriter.tactics = { Tactics.default_options with Tactics.b0_fallback = true } }
  in
  let r2 =
    Rewriter.run ~options elf ~select:(fun s -> s.Frontend.addr = tail)
      ~template:(fun _ -> Trampoline.Empty)
  in
  check_int "B0 rescues it" 1 r2.Rewriter.stats.Stats.b0;
  check_bool "still behaves" true
    (Machine.equivalent (run elf) (run r2.Rewriter.output))

let test_push_pop_rsp_semantics () =
  (* push %rsp pushes the pre-decrement value; pop %rsp loads the popped
     value. Classic emulator pitfalls. *)
  let asm = Asm.create ~base:0x400000 in
  let ins i = Asm.ins asm i in
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RSP));
  ins (Insn.Push Reg.RSP);
  ins (Insn.Pop Reg.RAX);
  (* rax must equal the original rsp *)
  ins (Insn.Alu (Insn.Sub, Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  ins (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg Reg.RBX));
  ins Insn.Syscall;
  let code = Asm.assemble asm in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:0x400000 in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx;
         vaddr = 0x400000; offset = 0; filesz = 0; memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  match (run elf).Cpu.outcome with
  | Cpu.Exited 0 -> ()
  | Cpu.Exited n -> Alcotest.failf "push/pop rsp off by %d" n
  | _ -> Alcotest.fail "crashed"

let suites =
  suites
  @ [ ( "core.corners",
        [ Alcotest.test_case "nothing selected" `Quick
            test_rewrite_nothing_selected;
          Alcotest.test_case "patch site at text end" `Quick
            test_patch_site_at_text_end;
          Alcotest.test_case "push/pop %rsp" `Quick test_push_pop_rsp_semantics
        ] ) ]

