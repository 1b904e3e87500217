(* Tests for the x86_64 encoder/decoder: fixed encodings checked against
   hand-assembled bytes (cross-checked with GNU as conventions), decoder
   totality, and encode/decode round-trip properties. *)

module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Encode = E9_x86.Encode
module Decode = E9_x86.Decode
module Classify = E9_x86.Classify
module Rng = E9_bits.Rng

let hex s =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let check_enc name expected insn =
  Alcotest.(check string) name expected (hex (Encode.encode insn))

(* ------------------------------------------------------------------ *)
(* Fixed encodings                                                     *)
(* ------------------------------------------------------------------ *)

let test_encode_mov_reg_reg () =
  check_enc "mov %rax,%rbx" "48 89 c3"
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  check_enc "mov %eax,%ebx" "89 c3"
    (Insn.Mov (Insn.L, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX));
  check_enc "mov %r8,%r15" "4d 89 c7"
    (Insn.Mov (Insn.Q, Insn.Reg Reg.R15, Insn.Reg Reg.R8))

let test_encode_mov_mem () =
  (* mov %rax,(%rbx) — the paper's §2.1.3 example instruction: 48 89 03 *)
  check_enc "mov %rax,(%rbx)" "48 89 03"
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Reg Reg.RAX));
  check_enc "mov (%rcx),%rdx" "48 8b 11"
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Mem (Insn.mem ~base:Reg.RCX ())));
  check_enc "mov %rax,8(%rbp)" "48 89 45 08"
    (Insn.Mov
       (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBP ~disp:8 ()), Insn.Reg Reg.RAX));
  (* RSP base forces SIB *)
  check_enc "mov %rax,(%rsp)" "48 89 04 24"
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RSP ()), Insn.Reg Reg.RAX));
  (* R13 base (rm=101) forces disp8 *)
  check_enc "mov %rax,(%r13)" "49 89 45 00"
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.R13 ()), Insn.Reg Reg.RAX))

let test_encode_mov_sib () =
  check_enc "mov %rax,(%rbx,%rcx,8)" "48 89 04 cb"
    (Insn.Mov
       ( Insn.Q,
         Insn.Mem (Insn.mem ~base:Reg.RBX ~index:(Reg.RCX, Insn.S8) ()),
         Insn.Reg Reg.RAX ));
  check_enc "mov %edx,16(%rsi,%rdi,4)" "89 54 be 10"
    (Insn.Mov
       ( Insn.L,
         Insn.Mem (Insn.mem ~base:Reg.RSI ~index:(Reg.RDI, Insn.S4) ~disp:16 ()),
         Insn.Reg Reg.RDX ))

let test_encode_rip_relative () =
  check_enc "mov %rax,0x100(%rip)" "48 89 05 00 01 00 00"
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.rip_mem 0x100), Insn.Reg Reg.RAX));
  check_enc "lea -4(%rip),%rdi" "48 8d 3d fc ff ff ff"
    (Insn.Lea (Reg.RDI, Insn.rip_mem (-4)))

(* A RIP-relative operand has one width, disp32: a displacement past it
   is refused like an out-of-range rel32, not silently wrapped. *)
let test_encode_rip_relative_range () =
  check_enc "mov %rax,0x7fffffff(%rip)" "48 89 05 ff ff ff 7f"
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.rip_mem 0x7fff_ffff), Insn.Reg Reg.RAX));
  check_enc "lea -0x80000000(%rip),%rdi" "48 8d 3d 00 00 00 80"
    (Insn.Lea (Reg.RDI, Insn.rip_mem (-0x8000_0000)));
  List.iter
    (fun disp ->
      Alcotest.check_raises (Printf.sprintf "disp %#x" disp)
        (Invalid_argument "Encode: rip-relative disp32 out of range")
        (fun () ->
          ignore
            (Encode.encode
               (Insn.Mov (Insn.Q, Insn.Mem (Insn.rip_mem disp), Insn.Reg Reg.RDI)))))
    [ 0x8000_0000; -0x8000_0001; 0x1_0000_0000 ]

let test_encode_alu () =
  (* add $32,%rax — the paper's §2.1.3 example: 48 83 c0 20 (short form) *)
  check_enc "add $32,%rax" "48 83 c0 20"
    (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 32));
  check_enc "add $1000,%rax" "48 81 c0 e8 03 00 00"
    (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1000));
  check_enc "xor %rax,%rcx" "48 31 c1"
    (Insn.Alu (Insn.Xor, Insn.Q, Insn.Reg Reg.RCX, Insn.Reg Reg.RAX));
  (* cmpl $77,-4(%rbx) — the paper's Ins4: 83 7b fc 4d *)
  check_enc "cmpl $77,-4(%rbx)" "83 7b fc 4d"
    (Insn.Alu
       (Insn.Cmp, Insn.L, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:(-4) ()),
        Insn.Imm 77));
  (* testb $0x2,0x18(%rbx) — Example 3.1's victim: f6 43 18 02 *)
  check_enc "testb $0x2,0x18(%rbx)" "f6 43 18 02"
    (Insn.Alu
       (Insn.Test, Insn.B, Insn.Mem (Insn.mem ~base:Reg.RBX ~disp:0x18 ()),
        Insn.Imm 2))

let test_encode_stack () =
  check_enc "push %rax" "50" (Insn.Push Reg.RAX);
  check_enc "push %r12" "41 54" (Insn.Push Reg.R12);
  check_enc "pop %rbp" "5d" (Insn.Pop Reg.RBP);
  check_enc "pop %r9" "41 59" (Insn.Pop Reg.R9)

let test_encode_control_flow () =
  check_enc "jmpq .+0" "e9 00 00 00 00" (Insn.Jmp 0);
  check_enc "jmpq .-256" "e9 00 ff ff ff" (Insn.Jmp (-256));
  check_enc "jmp short" "eb 07" (Insn.Jmp_short 7);
  check_enc "je rel32" "0f 84 10 00 00 00" (Insn.Jcc (Insn.E, 0x10));
  check_enc "je short" "74 27" (Insn.Jcc_short (Insn.E, 0x27));
  check_enc "callq" "e8 00 00 00 00" (Insn.Call 0);
  check_enc "ret" "c3" Insn.Ret;
  check_enc "jmp *%rax" "ff e0" (Insn.Jmp_ind (Insn.Reg Reg.RAX));
  check_enc "call *%rbx" "ff d3" (Insn.Call_ind (Insn.Reg Reg.RBX));
  check_enc "jmp *8(%rdi,%rsi,8)" "ff 64 f7 08"
    (Insn.Jmp_ind (Insn.Mem (Insn.mem ~base:Reg.RDI ~index:(Reg.RSI, Insn.S8) ~disp:8 ())))

let test_encode_misc () =
  check_enc "int3" "cc" Insn.Int3;
  check_enc "int $0x42" "cd 42" (Insn.Int 0x42);
  check_enc "syscall" "0f 05" Insn.Syscall;
  check_enc "ud2" "0f 0b" Insn.Ud2;
  check_enc "movabs" "48 b8 ef cd ab 89 67 45 23 01"
    (Insn.Movabs (Reg.RAX, 0x0123456789abcdefL));
  check_enc "imul %rbx,%rax" "48 0f af c3" (Insn.Imul (Reg.RAX, Insn.Reg Reg.RBX));
  check_enc "shl $3,%rax" "48 c1 e0 03"
    (Insn.Shift (Insn.Shl, Insn.Q, Insn.Reg Reg.RAX, 3))

let test_encode_nops () =
  for n = 1 to 9 do
    Alcotest.(check int)
      (Printf.sprintf "nop%d length" n)
      n
      (String.length (Encode.encode (Insn.Nop n)))
  done

(* Every nop length the decoder accepts from compilers, 1 to 15 bytes,
   encodes and decodes back to the same nop: trampolines re-encode a
   displaced instruction from its decoded form. *)
let test_nop_roundtrip () =
  for n = 1 to 15 do
    let code = Encode.encode (Insn.Nop n) in
    let d = Decode.decode (Bytes.of_string code) 0 in
    Alcotest.(check int) (Printf.sprintf "nop%d length" n) n (String.length code);
    Alcotest.(check int) (Printf.sprintf "nop%d decoded length" n) n d.Decode.len;
    Alcotest.(check bool) (Printf.sprintf "nop%d decodes to itself" n) true
      (Insn.equal d.Decode.insn (Insn.Nop n))
  done;
  Alcotest.check_raises "16 bytes exceed the x86 limit"
    (Invalid_argument "Encode: nop length must be 1..15") (fun () ->
      ignore (Encode.encode (Insn.Nop 16)))

let test_encode_byte_regs () =
  (* SIL needs a bare REX, AL does not. *)
  check_enc "movb %al,(%rbx)" "88 03"
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Reg Reg.RAX));
  check_enc "movb %sil,(%rbx)" "40 88 33"
    (Insn.Mov (Insn.B, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Reg Reg.RSI))

let test_padded_jump_encoding () =
  let s = Encode.encode_with_prefixes [ 0x48; 0x26 ] (Insn.Jmp 0x1234) in
  Alcotest.(check string) "padded jmp" "48 26 e9 34 12 00 00" (hex s)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let test_decode_paper_sequence () =
  (* The Figure 1 (Orig.) sequence:
     48 89 03 | 48 83 c0 20 | 48 31 c1 | 83 7b fc 4d *)
  let bytes =
    Bytes.of_string
      "\x48\x89\x03\x48\x83\xc0\x20\x48\x31\xc1\x83\x7b\xfc\x4d"
  in
  let rec linear p =
    if p >= Bytes.length bytes then []
    else
      let d = Decode.decode bytes p in
      d :: linear (p + d.Decode.len)
  in
  let insns = linear 0 in
  let lens = List.map (fun d -> d.Decode.len) insns in
  Alcotest.(check (list int)) "lengths" [ 3; 4; 3; 4 ] lens;
  match List.map (fun d -> d.Decode.insn) insns with
  | [ Insn.Mov (Insn.Q, Insn.Mem _, Insn.Reg Reg.RAX);
      Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 32);
      Insn.Alu (Insn.Xor, Insn.Q, Insn.Reg Reg.RCX, Insn.Reg Reg.RAX);
      Insn.Alu (Insn.Cmp, Insn.L, Insn.Mem _, Insn.Imm 77) ] ->
      ()
  | other ->
      Alcotest.failf "unexpected decode: %s"
        (String.concat "; " (List.map Insn.to_string other))

let test_decode_prefixed_jump () =
  (* A T1-padded punned jump must decode as a jump with correct length. *)
  let bytes = Bytes.of_string "\x48\x26\xe9\x34\x12\x00\x00" in
  let d = Decode.decode bytes 0 in
  Alcotest.(check int) "len" 7 d.Decode.len;
  Alcotest.(check (list int)) "prefixes" [ 0x48; 0x26 ] d.Decode.prefixes;
  match d.Decode.insn with
  | Insn.Jmp 0x1234 -> ()
  | i -> Alcotest.failf "expected jmp, got %s" (Insn.to_string i)

let test_decode_unknown_total () =
  (* Arbitrary garbage decodes without raising, advancing at least 1 byte. *)
  let bytes = Bytes.of_string "\xd9\xf6\x0e\x07\x9b" in
  let rec go p n =
    if p >= Bytes.length bytes then n
    else
      let d = Decode.decode bytes p in
      Alcotest.(check bool) "progress" true (d.Decode.len >= 1);
      go (p + d.Decode.len) (n + 1)
  in
  ignore (go 0 0)

let test_decode_truncated () =
  (* A jump opcode with missing displacement bytes decodes as Unknown. *)
  let bytes = Bytes.of_string "\xe9\x01\x02" in
  let d = Decode.decode bytes 0 in
  (match d.Decode.insn with
  | Insn.Unknown 0xe9 -> ()
  | i -> Alcotest.failf "expected unknown, got %s" (Insn.to_string i));
  Alcotest.(check int) "len 1" 1 d.Decode.len

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let test_classify_jumps () =
  let check b i = Alcotest.(check bool) (Insn.to_string i) b (Classify.is_jump i) in
  check true (Insn.Jmp 0);
  check true (Insn.Jcc (Insn.NE, 4));
  check true (Insn.Jmp_ind (Insn.Reg Reg.RAX));
  check false (Insn.Call 0);
  check false Insn.Ret;
  check false (Insn.Nop 1)

let test_classify_heap_writes () =
  let check b i =
    Alcotest.(check bool) (Insn.to_string i) b (Classify.is_heap_write i)
  in
  check true
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Reg Reg.RAX));
  check true
    (Insn.Alu
       (Insn.Add, Insn.L, Insn.Mem (Insn.mem ~base:Reg.RDI ~disp:8 ()),
        Insn.Imm 1));
  (* stack and globals excluded, reads excluded, cmp/test excluded *)
  check false
    (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RSP ()), Insn.Reg Reg.RAX));
  check false (Insn.Mov (Insn.Q, Insn.Mem (Insn.rip_mem 0), Insn.Reg Reg.RAX));
  check false
    (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Mem (Insn.mem ~base:Reg.RBX ())));
  check false
    (Insn.Alu
       (Insn.Cmp, Insn.L, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Imm 0))

(* ------------------------------------------------------------------ *)
(* Round-trip property                                                 *)
(* ------------------------------------------------------------------ *)

(* Generator of random instructions from the encodable subset. *)
let random_insn rng =
  let reg () = Rng.pick rng Reg.all in
  let nonsp_reg () =
    let rec go () =
      let r = reg () in
      if Reg.equal r Reg.RSP then go () else r
    in
    go ()
  in
  let size () = Rng.pick rng [| Insn.B; Insn.L; Insn.Q |] in
  let scale () = Rng.pick rng [| Insn.S1; Insn.S2; Insn.S4; Insn.S8 |] in
  let mem () =
    if Rng.chance rng 0.1 then Insn.rip_mem (Rng.range rng (-100000) 100000)
    else
      let base = if Rng.chance rng 0.9 then Some (reg ()) else None in
      let index =
        if Rng.chance rng 0.3 || base = None then Some (nonsp_reg (), scale ())
        else None
      in
      { Insn.base; index; disp = Rng.range rng (-100000) 100000; rip_rel = false }
  in
  let operand_rm () = if Rng.bool rng then Insn.Reg (reg ()) else Insn.Mem (mem ()) in
  let imm sz =
    match sz with
    | Insn.B -> Rng.range rng (-128) 127
    | Insn.L | Insn.Q -> Rng.range rng (-0x8000_0000) 0x7fff_ffff
  in
  let alu () =
    Rng.pick rng
      [| Insn.Add; Insn.Or; Insn.And; Insn.Sub; Insn.Xor; Insn.Cmp; Insn.Test |]
  in
  let cc () = Insn.cc_of_index (Rng.int rng 16) in
  match Rng.int rng 27 with
  | 0 ->
      let sz = size () in
      Insn.Mov (sz, operand_rm (), Insn.Reg (reg ()))
  | 1 ->
      let sz = size () in
      Insn.Mov (sz, Insn.Reg (reg ()), Insn.Mem (mem ()))
  | 2 ->
      let sz = size () in
      Insn.Mov (sz, operand_rm (), Insn.Imm (imm sz))
  | 3 -> Insn.Movabs (reg (), Rng.next rng)
  | 4 -> Insn.Lea (reg (), mem ())
  | 5 ->
      let sz = size () in
      Insn.Alu (alu (), sz, operand_rm (), Insn.Reg (reg ()))
  | 6 ->
      let op = alu () in
      let sz = size () in
      if op = Insn.Test then Insn.Alu (op, sz, Insn.Reg (reg ()), Insn.Reg (reg ()))
      else Insn.Alu (op, sz, Insn.Reg (reg ()), Insn.Mem (mem ()))
  | 7 ->
      let sz = size () in
      Insn.Alu (alu (), sz, operand_rm (), Insn.Imm (imm sz))
  | 8 -> Insn.Imul (reg (), operand_rm ())
  | 9 -> Insn.Shift (Rng.pick rng [| Insn.Shl; Insn.Shr; Insn.Sar |], size (),
                     operand_rm (), Rng.int rng 64)
  | 10 -> Insn.Push (reg ())
  | 11 -> Insn.Pop (reg ())
  | 12 -> Insn.Call (Rng.range rng (-0x8000_0000) 0x7fff_ffff)
  | 13 -> Insn.Call_ind (operand_rm ())
  | 14 -> Insn.Ret
  | 15 -> Insn.Jmp (Rng.range rng (-0x8000_0000) 0x7fff_ffff)
  | 16 -> Insn.Jmp_ind (operand_rm ())
  | 17 -> Insn.Jcc (cc (), Rng.range rng (-0x8000_0000) 0x7fff_ffff)
  | 18 -> Insn.Nop (1 + Rng.int rng 9)
  | 19 -> if Rng.bool rng then Insn.Jmp_short (Rng.range rng (-128) 127)
          else Insn.Jcc_short (cc (), Rng.range rng (-128) 127)
  | 20 -> Insn.Movzx (reg (), operand_rm ())
  | 21 -> Insn.Movsx (reg (), operand_rm ())
  | 22 -> Insn.Setcc (cc (), operand_rm ())
  | 23 -> Insn.Cmov (cc (), reg (), operand_rm ())
  | 24 ->
      let sz = size () in
      if Rng.bool rng then Insn.Neg (sz, operand_rm ())
      else Insn.Not (sz, operand_rm ())
  | 25 ->
      let sz = size () in
      if Rng.bool rng then Insn.Inc (sz, operand_rm ())
      else Insn.Dec (sz, operand_rm ())
  | _ ->
      let sz = size () in
      let op = if Rng.bool rng then Insn.Adc else Insn.Sbb in
      Insn.Alu (op, sz, operand_rm (), Insn.Reg (reg ()))

let test_roundtrip_property () =
  let rng = Rng.create 0xE9L in
  for i = 1 to 20_000 do
    let insn = random_insn rng in
    let code = Encode.encode insn in
    let d = Decode.decode (Bytes.of_string code) 0 in
    if not (Insn.equal d.Decode.insn insn) then
      Alcotest.failf "roundtrip %d failed: %s -> [%s] -> %s" i
        (Insn.to_string insn) (hex code)
        (Insn.to_string d.Decode.insn);
    if d.Decode.len <> String.length code then
      Alcotest.failf "length mismatch for %s: encoded %d, decoded %d"
        (Insn.to_string insn) (String.length code) d.Decode.len
  done

let test_decoder_never_raises_on_garbage () =
  let rng = Rng.create 123L in
  for _ = 1 to 2_000 do
    let len = 1 + Rng.int rng 32 in
    let bytes = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let rec go p =
      if p < len then begin
        let d = Decode.decode bytes p in
        assert (d.Decode.len >= 1);
        go (p + d.Decode.len)
      end
    in
    go 0
  done

(* Decoding under a limit reads as decoding a copy cut at the limit. The
   bytes open with a run of prefixes (up to 24, beyond the 15-byte
   instruction bound, so some decodes are prefix runs the limit cuts)
   before random bytes, and the limit falls anywhere from one byte past
   [pos] to beyond the end, so most cut an instruction. *)
let prop_decode_limit =
  let prefixes =
    [ 0x26; 0x2e; 0x36; 0x3e; 0x64; 0x65; 0x66; 0x67; 0xf0; 0xf2; 0xf3; 0x40;
      0x48; 0x4f ]
  in
  let gen =
    QCheck.Gen.(
      let* run = int_range 0 24 in
      let* pre = list_repeat run (oneofl prefixes) in
      let* tail = list_size (int_range 1 16) (int_bound 255) in
      let code = String.of_seq (List.to_seq (List.map Char.chr (pre @ tail))) in
      let* pos = int_bound (String.length code - 1) in
      let* limit = int_range (pos + 1) (String.length code + 2) in
      return (code, pos, limit))
  in
  let print (code, pos, limit) =
    Printf.sprintf "[%s] pos %d limit %d" (hex code) pos limit
  in
  QCheck.Test.make ~name:"decode under a limit = decode of the cut copy"
    ~count:5000 (QCheck.make ~print gen) (fun (code, pos, limit) ->
      let bytes = Bytes.of_string code in
      let cut = Bytes.sub bytes 0 (min limit (Bytes.length bytes)) in
      Decode.decode ~limit bytes pos = Decode.decode cut pos)

let suites =
  [ ( "x86.encode",
      [ Alcotest.test_case "mov reg,reg" `Quick test_encode_mov_reg_reg;
        Alcotest.test_case "mov mem" `Quick test_encode_mov_mem;
        Alcotest.test_case "mov SIB" `Quick test_encode_mov_sib;
        Alcotest.test_case "rip-relative" `Quick test_encode_rip_relative;
        Alcotest.test_case "rip-relative disp32 range" `Quick
          test_encode_rip_relative_range;
        Alcotest.test_case "alu" `Quick test_encode_alu;
        Alcotest.test_case "stack" `Quick test_encode_stack;
        Alcotest.test_case "control flow" `Quick test_encode_control_flow;
        Alcotest.test_case "misc" `Quick test_encode_misc;
        Alcotest.test_case "nops 1..9" `Quick test_encode_nops;
        Alcotest.test_case "nops 1..15 round-trip" `Quick test_nop_roundtrip;
        Alcotest.test_case "byte regs need REX" `Quick test_encode_byte_regs;
        Alcotest.test_case "padded jump" `Quick test_padded_jump_encoding ] );
    ( "x86.decode",
      [ Alcotest.test_case "paper Figure 1 sequence" `Quick
          test_decode_paper_sequence;
        Alcotest.test_case "prefixed jump" `Quick test_decode_prefixed_jump;
        Alcotest.test_case "garbage is total" `Quick test_decode_unknown_total;
        Alcotest.test_case "truncated" `Quick test_decode_truncated;
        QCheck_alcotest.to_alcotest prop_decode_limit ] );
    ( "x86.classify",
      [ Alcotest.test_case "jumps (A1)" `Quick test_classify_jumps;
        Alcotest.test_case "heap writes (A2)" `Quick test_classify_heap_writes ] );
    ( "x86.roundtrip",
      [ Alcotest.test_case "encode/decode 20k random insns" `Quick
          test_roundtrip_property;
        Alcotest.test_case "decoder total on garbage" `Quick
          test_decoder_never_raises_on_garbage ] ) ]

let test_decode_prefix_orders () =
  (* Hardware ignores a REX that does not immediately precede the opcode;
     the T1 padding relies on the decoder accepting arbitrary prefix
     mixes. *)
  let cases =
    [ ("\x26\x48\xe9\x01\x00\x00\x00", 7);       (* seg then REX *)
      ("\x48\x26\xe9\x01\x00\x00\x00", 7);       (* REX then seg *)
      ("\x48\x48\x48\xe9\x01\x00\x00\x00", 8);   (* stacked REX *)
      ("\x66\xe9\x01\x00\x00\x00", 6) ]          (* operand override *)
  in
  List.iter
    (fun (bytes, len) ->
      let d = Decode.decode (Bytes.of_string bytes) 0 in
      Alcotest.(check int) "length" len d.Decode.len;
      match d.Decode.insn with
      | Insn.Jmp 1 -> ()
      | i -> Alcotest.failf "expected jmp+1, got %s" (Insn.to_string i))
    cases

let test_decode_rex_dropped_by_legacy_prefix () =
  (* A REX before a legacy prefix must not take effect: 48 26 89 c3 is
     (es) mov %eax,%ebx — 32-bit, not 64-bit. *)
  let d = Decode.decode (Bytes.of_string "\x48\x26\x89\xc3") 0 in
  match d.Decode.insn with
  | Insn.Mov (Insn.L, Insn.Reg Reg.RBX, Insn.Reg Reg.RAX) -> ()
  | i -> Alcotest.failf "REX leaked through: %s" (Insn.to_string i)

let suites =
  suites
  @ [ ( "x86.prefixes",
        [ Alcotest.test_case "padded-jump prefix orders" `Quick
            test_decode_prefix_orders;
          Alcotest.test_case "REX dropped by legacy prefix" `Quick
            test_decode_rex_dropped_by_legacy_prefix ] ) ]
