(* Tests for the label-based assembler, the loader-stub emitter, and the
   ground-truth table metadata codec. *)

module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Decode = E9_x86.Decode
module Loader_stub = E9_core.Loader_stub
module Rng = E9_bits.Rng
module Iset = E9_bits.Iset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Asm                                                                 *)
(* ------------------------------------------------------------------ *)

let test_asm_forward_backward () =
  let asm = Asm.create ~base:0x1000 in
  let fwd = Asm.fresh_label asm "fwd" in
  let back = Asm.fresh_label asm "back" in
  Asm.place asm back;
  Asm.ins asm (Insn.Nop 1);
  Asm.jmp asm fwd;
  Asm.jmp asm back;
  Asm.place asm fwd;
  Asm.ins asm Insn.Ret;
  let code = Asm.assemble asm in
  (* nop(1) jmp(5) jmp(5) ret *)
  check_int "layout" 12 (Bytes.length code);
  let d1 = Decode.decode code 1 in
  (match d1.Decode.insn with
  | Insn.Jmp rel -> check_int "forward" (Asm.label_addr asm fwd) (0x1000 + 6 + rel)
  | _ -> Alcotest.fail "not a jmp");
  let d2 = Decode.decode code 6 in
  match d2.Decode.insn with
  | Insn.Jmp rel -> check_int "backward" 0x1000 (0x1000 + 11 + rel)
  | _ -> Alcotest.fail "not a jmp"

let test_asm_short_range_enforced () =
  let asm = Asm.create ~base:0 in
  let l = Asm.fresh_label asm "far" in
  Asm.jmp_short asm l;
  for _ = 1 to 200 do
    Asm.ins asm (Insn.Nop 1)
  done;
  Asm.place asm l;
  Alcotest.check_raises "short branch out of range"
    (Failure "Asm: short branch to far out of rel8 range") (fun () ->
      ignore (Asm.assemble asm))

let test_asm_unplaced_label () =
  let asm = Asm.create ~base:0 in
  let l = Asm.fresh_label asm "ghost" in
  Asm.jmp asm l;
  Alcotest.check_raises "unplaced" (Failure "Asm: label ghost not placed")
    (fun () -> ignore (Asm.assemble asm))

let test_asm_double_place () =
  let asm = Asm.create ~base:0 in
  let l = Asm.fresh_label asm "l" in
  Asm.place asm l;
  Alcotest.check_raises "double place" (Failure "Asm: label l placed twice")
    (fun () -> Asm.place asm l)

let test_asm_lea_label () =
  let asm = Asm.create ~base:0x2000 in
  let data = Asm.fresh_label asm "data" in
  Asm.lea_label asm Reg.RSI data;
  Asm.ins asm Insn.Ret;
  Asm.place asm data;
  Asm.ins_raw asm "xyz";
  let code = Asm.assemble asm in
  match (Decode.decode code 0).Decode.insn with
  | Insn.Lea (Reg.RSI, m) ->
      check_bool "rip relative" true m.Insn.rip_rel;
      check_int "resolves to data" (Asm.label_addr asm data)
        (0x2000 + 7 + m.Insn.disp)
  | _ -> Alcotest.fail "not a lea"

(* ------------------------------------------------------------------ *)
(* Loader stub emission                                                *)
(* ------------------------------------------------------------------ *)

let test_stub_decodes_cleanly () =
  let mappings =
    [ { Loadmap.vaddr = 0x10000; file_off = 0x5000; len = 8192;
        prot = Elf_file.prot_rx };
      { Loadmap.vaddr = 0x30000; file_off = 0x5000; len = 4096;
        prot = Elf_file.prot_rx } ]
  in
  let stub =
    Loader_stub.emit ~vaddr:Loader_stub.home ~mappings ~real_entry:0x400000
  in
  check_bool "entry inside segment" true
    (stub.Loader_stub.entry >= Loader_stub.home
    && stub.Loader_stub.entry
       < Loader_stub.home + Bytes.length stub.Loader_stub.content);
  (* The path string comes first. *)
  check_bool "path string present" true
    (Bytes.sub_string stub.Loader_stub.content 0
       (String.length E9_emu.Cpu.self_exe_path)
    = E9_emu.Cpu.self_exe_path);
  (* Every stub instruction decodes; it contains the openat/mmap/close
     syscalls and ends with an indirect jump through the 8-byte entry slot
     that trails the code. *)
  let code_off = stub.Loader_stub.entry - Loader_stub.home in
  let code =
    Bytes.sub stub.Loader_stub.content code_off
      (Bytes.length stub.Loader_stub.content - code_off - 8)
  in
  let rec linear p =
    if p >= Bytes.length code then []
    else
      let d = Decode.decode code p in
      d.Decode.insn :: linear (p + d.Decode.len)
  in
  let insns = linear 0 in
  check_bool "no undecodable bytes" true
    (List.for_all (function Insn.Unknown _ -> false | _ -> true) insns);
  check_int "three syscalls" 3
    (List.length (List.filter (fun i -> i = Insn.Syscall) insns));
  (* Register transparency: everything the stub writes it restores. *)
  check_int "pushes balance pops" 0
    (List.fold_left
       (fun n i ->
         match i with Insn.Push _ -> n + 1 | Insn.Pop _ -> n - 1 | _ -> n)
       0 insns);
  (match List.rev insns with
  | Insn.Jmp_ind (Insn.Mem m) :: _ ->
      check_bool "terminal jump reads the entry slot" true
        (m.Insn.rip_rel && m.Insn.disp = 0)
  | _ -> Alcotest.fail "stub must end with an indirect jump");
  check_bool "entry slot holds the real entry" true
    (Bytes.get_int64_le stub.Loader_stub.content
       (Bytes.length stub.Loader_stub.content - 8)
    = 0x400000L)

(* ------------------------------------------------------------------ *)
(* Tablemeta codec                                                     *)
(* ------------------------------------------------------------------ *)

let test_tablemeta_roundtrip () =
  let tables =
    [ { Tablemeta.addr = 0x40e000; kind = Tablemeta.Abs64; entries = 4 };
      { Tablemeta.addr = 0x40e020; kind = Tablemeta.Off32 0x400000; entries = 3 } ]
  in
  check_bool "roundtrip" true
    (Tablemeta.decode (Tablemeta.encode tables) = tables)

(* ------------------------------------------------------------------ *)
(* Strided interval search                                             *)
(* ------------------------------------------------------------------ *)

let prop_find_free_strided_model =
  QCheck.Test.make
    ~name:"Iset.find_free agrees with naive model at strides 1-16"
    ~count:400
    QCheck.(
      pair
        (small_list (pair (int_bound 300) (int_range 1 25)))
        (quad (int_range 1 8) (int_bound 300) (int_bound 300) (int_range 1 16)))
    (fun (adds, (size, lo, hi, stride)) ->
      let size = max 1 size and stride = max 1 stride in
      let s = Iset.create () in
      let model = Array.make 400 false in
      List.iter
        (fun (start, len) ->
          Iset.add s ~lo:start ~hi:(start + len);
          for i = start to min 399 (start + len - 1) do
            model.(i) <- true
          done)
        adds;
      let naive () =
        let result = ref None in
        (try
           let pos = ref lo in
           while !pos <= hi do
             let ok = ref true in
             for i = !pos to !pos + size - 1 do
               if i < 400 && model.(i) then ok := false
             done;
             if !ok then begin
               result := Some !pos;
               raise Exit
             end;
             pos := !pos + stride
           done
         with Exit -> ());
        !result
      in
      Iset.find_free s ~size ~lo ~hi ~stride = naive ())

let suites =
  [ ( "x86.asm",
      [ Alcotest.test_case "forward/backward labels" `Quick
          test_asm_forward_backward;
        Alcotest.test_case "short range enforced" `Quick
          test_asm_short_range_enforced;
        Alcotest.test_case "unplaced label" `Quick test_asm_unplaced_label;
        Alcotest.test_case "double place" `Quick test_asm_double_place;
        Alcotest.test_case "lea of label" `Quick test_asm_lea_label ] );
    ( "core.loader_stub_unit",
      [ Alcotest.test_case "stub decodes cleanly" `Quick
          test_stub_decodes_cleanly;
        Alcotest.test_case "tablemeta roundtrip" `Quick test_tablemeta_roundtrip
      ] );
    ( "bits.strided",
      [ QCheck_alcotest.to_alcotest prop_find_free_strided_model ] ) ]
