let jmp_opcode = 0xe9
let jmp_short_opcode = 0xeb

let jump_padding_prefixes =
  [| 0x26; 0x2e; 0x36; 0x3e; 0x64; 0x65; 0x66; 0x48 |]

type emitter = Buffer.t

let u8 (b : emitter) v = Buffer.add_char b (Char.chr (v land 0xff))

let u32 b v =
  u8 b v;
  u8 b (v asr 8);
  u8 b (v asr 16);
  u8 b (v asr 24)

let u64 b (v : int64) =
  for i = 0 to 7 do
    u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let fits_i8 v = v >= -128 && v <= 127
let fits_i32 v = v >= -0x8000_0000 && v <= 0x7fff_ffff

let scale_bits = function
  | Insn.S1 -> 0
  | Insn.S2 -> 1
  | Insn.S4 -> 2
  | Insn.S8 -> 3

(* Emit REX (if needed), opcode bytes, and a ModRM/SIB/disp sequence for a
   [reg, r/m] pair. [reg_idx] is the full 4-bit index for the reg field.
   [rm] is either a register or a memory operand. [w] requests REX.W.
   [force_rex] is set for byte-sized operations on SPL/BPL/SIL/DIL. *)
let emit_modrm b ~w ~force_rex ~opcodes ~reg_idx rm =
  let rex_r = reg_idx lsr 3 in
  let modrm_sib = Buffer.create 8 in
  let rex_x, rex_b =
    match rm with
    | `Reg r ->
        let i = Reg.index r in
        u8 modrm_sib (0b11_000_000 lor ((reg_idx land 7) lsl 3) lor (i land 7));
        (0, i lsr 3)
    | `Mem (m : Insn.mem) ->
        let reg_f = (reg_idx land 7) lsl 3 in
        if m.rip_rel then begin
          if m.base <> None || m.index <> None then
            invalid_arg "Encode: rip-relative with base/index";
          u8 modrm_sib (0b00_000_000 lor reg_f lor 0b101);
          u32 modrm_sib m.disp;
          (0, 0)
        end
        else begin
          (match m.index with
          | Some (r, _) when Reg.equal r Reg.RSP ->
              invalid_arg "Encode: %rsp cannot be an index register"
          | _ -> ());
          let need_sib =
            m.index <> None || m.base = None
            ||
            match m.base with
            | Some r -> Reg.index r land 7 = 4 (* RSP/R12 *)
            | None -> false
          in
          let base_idx = match m.base with Some r -> Reg.index r | None -> -1 in
          let index_idx =
            match m.index with Some (r, _) -> Reg.index r | None -> -1
          in
          (* Displacement size: no-disp needs base present and base not
             RBP/R13; no-base forms always carry disp32. *)
          let md =
            if m.base = None then 0b00
            else if m.disp = 0 && base_idx land 7 <> 5 then 0b00
            else if fits_i8 m.disp then 0b01
            else 0b10
          in
          if not (fits_i32 m.disp) then invalid_arg "Encode: disp too large";
          if need_sib then begin
            u8 modrm_sib ((md lsl 6) lor reg_f lor 0b100);
            let sib_scale =
              match m.index with Some (_, s) -> scale_bits s | None -> 0
            in
            let sib_index = if index_idx < 0 then 0b100 else index_idx land 7 in
            let sib_base = if base_idx < 0 then 0b101 else base_idx land 7 in
            u8 modrm_sib ((sib_scale lsl 6) lor (sib_index lsl 3) lor sib_base)
          end
          else u8 modrm_sib ((md lsl 6) lor reg_f lor (base_idx land 7));
          (match md with
          | 0b01 -> u8 modrm_sib m.disp
          | 0b10 -> u32 modrm_sib m.disp
          | _ -> if m.base = None then u32 modrm_sib m.disp);
          ((if index_idx < 0 then 0 else index_idx lsr 3),
           if base_idx < 0 then 0 else base_idx lsr 3)
        end
  in
  let rex =
    0x40 lor ((if w then 1 else 0) lsl 3) lor (rex_r lsl 2) lor (rex_x lsl 1)
    lor rex_b
  in
  if rex <> 0x40 || force_rex then u8 b rex;
  List.iter (u8 b) opcodes;
  Buffer.add_buffer b modrm_sib

(* Whether a byte-sized access to register [r] requires a REX prefix to mean
   SPL/BPL/SIL/DIL rather than AH/CH/DH/BH. *)
let byte_needs_rex r =
  let i = Reg.index r in
  i >= 4 && i <= 7

let force_rex_for sz ops =
  sz = Insn.B
  && List.exists (function `Reg r -> byte_needs_rex r | `Mem _ -> false) ops

(* ALU opcode table: base opcode for the [r/m, r] byte form; the /digit for
   the immediate group. *)
let alu_base = function
  | Insn.Add -> 0x00
  | Insn.Adc -> 0x10
  | Insn.Sbb -> 0x18
  | Insn.Or -> 0x08
  | Insn.And -> 0x20
  | Insn.Sub -> 0x28
  | Insn.Xor -> 0x30
  | Insn.Cmp -> 0x38
  | Insn.Test -> -1 (* test has its own opcodes *)

let alu_digit = function
  | Insn.Add -> 0
  | Insn.Adc -> 2
  | Insn.Sbb -> 3
  | Insn.Or -> 1
  | Insn.And -> 4
  | Insn.Sub -> 5
  | Insn.Xor -> 6
  | Insn.Cmp -> 7
  | Insn.Test -> 0 (* f6/f7 /0 *)

let shift_digit = function Insn.Shl -> 4 | Insn.Shr -> 5 | Insn.Sar -> 7

let emit b (insn : Insn.t) =
  let w_of sz = sz = Insn.Q in
  let rm_of = function
    | Insn.Reg r -> `Reg r
    | Insn.Mem m -> `Mem m
    | Insn.Imm _ -> invalid_arg "Encode: immediate cannot be r/m"
  in
  let emit_imm sz v =
    match sz with
    | Insn.B ->
        if not (fits_i8 v) then invalid_arg "Encode: imm8 out of range";
        u8 b v
    | Insn.L | Insn.Q ->
        if not (fits_i32 v) then invalid_arg "Encode: imm32 out of range";
        u32 b v
  in
  match insn with
  | Mov (sz, dst, src) -> (
      match (dst, src) with
      | (Reg _ | Mem _), Reg r ->
          let opc = if sz = B then [ 0x88 ] else [ 0x89 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ `Reg r; rm_of dst ])
            ~opcodes:opc ~reg_idx:(Reg.index r) (rm_of dst)
      | Reg r, Mem m ->
          let opc = if sz = B then [ 0x8a ] else [ 0x8b ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ `Reg r ])
            ~opcodes:opc ~reg_idx:(Reg.index r) (`Mem m)
      | (Reg _ | Mem _), Imm v ->
          let opc = if sz = B then [ 0xc6 ] else [ 0xc7 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ rm_of dst ])
            ~opcodes:opc ~reg_idx:0 (rm_of dst);
          emit_imm sz v
      | Imm _, _ -> invalid_arg "Encode: mov to immediate"
      | Mem _, Mem _ -> invalid_arg "Encode: mem-to-mem mov")
  | Movabs (r, v) ->
      let i = Reg.index r in
      u8 b (0x48 lor (i lsr 3));
      u8 b (0xb8 lor (i land 7));
      u64 b v
  | Lea (r, m) ->
      emit_modrm b ~w:true ~force_rex:false ~opcodes:[ 0x8d ]
        ~reg_idx:(Reg.index r) (`Mem m)
  | Alu (Test, sz, dst, src) -> (
      match (dst, src) with
      | (Reg _ | Mem _), Reg r ->
          let opc = if sz = B then [ 0x84 ] else [ 0x85 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ `Reg r; rm_of dst ])
            ~opcodes:opc ~reg_idx:(Reg.index r) (rm_of dst)
      | (Reg _ | Mem _), Imm v ->
          let opc = if sz = B then [ 0xf6 ] else [ 0xf7 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ rm_of dst ])
            ~opcodes:opc ~reg_idx:0 (rm_of dst);
          emit_imm sz v
      | _ -> invalid_arg "Encode: bad test operands")
  | Alu (op, sz, dst, src) -> (
      match (dst, src) with
      | (Reg _ | Mem _), Reg r ->
          let opc = [ alu_base op lor if sz = B then 0 else 1 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ `Reg r; rm_of dst ])
            ~opcodes:opc ~reg_idx:(Reg.index r) (rm_of dst)
      | Reg r, Mem m ->
          let opc = [ alu_base op lor if sz = B then 2 else 3 ] in
          emit_modrm b ~w:(w_of sz)
            ~force_rex:(force_rex_for sz [ `Reg r ])
            ~opcodes:opc ~reg_idx:(Reg.index r) (`Mem m)
      | (Reg _ | Mem _), Imm v ->
          if sz <> B && fits_i8 v then begin
            (* Short-form sign-extended imm8 (0x83), as compilers emit. *)
            emit_modrm b ~w:(w_of sz) ~force_rex:false ~opcodes:[ 0x83 ]
              ~reg_idx:(alu_digit op) (rm_of dst);
            u8 b v
          end
          else begin
            let opc = if sz = B then [ 0x80 ] else [ 0x81 ] in
            emit_modrm b ~w:(w_of sz)
              ~force_rex:(force_rex_for sz [ rm_of dst ])
              ~opcodes:opc ~reg_idx:(alu_digit op) (rm_of dst);
            emit_imm sz v
          end
      | Imm _, _ -> invalid_arg "Encode: ALU to immediate"
      | Mem _, Mem _ -> invalid_arg "Encode: mem-to-mem ALU")
  | Imul (r, src) ->
      emit_modrm b ~w:true ~force_rex:false ~opcodes:[ 0x0f; 0xaf ]
        ~reg_idx:(Reg.index r) (rm_of src)
  | Movzx (r, src) ->
      emit_modrm b ~w:true
        ~force_rex:(force_rex_for B [ rm_of src ])
        ~opcodes:[ 0x0f; 0xb6 ] ~reg_idx:(Reg.index r) (rm_of src)
  | Movsx (r, src) ->
      emit_modrm b ~w:true
        ~force_rex:(force_rex_for B [ rm_of src ])
        ~opcodes:[ 0x0f; 0xbe ] ~reg_idx:(Reg.index r) (rm_of src)
  | Setcc (c, dst) ->
      emit_modrm b ~w:false
        ~force_rex:(force_rex_for B [ rm_of dst ])
        ~opcodes:[ 0x0f; 0x90 lor Insn.cc_index c ]
        ~reg_idx:0 (rm_of dst)
  | Cmov (c, r, src) ->
      emit_modrm b ~w:true ~force_rex:false
        ~opcodes:[ 0x0f; 0x40 lor Insn.cc_index c ]
        ~reg_idx:(Reg.index r) (rm_of src)
  | Neg (sz, dst) ->
      let opc = if sz = B then [ 0xf6 ] else [ 0xf7 ] in
      emit_modrm b ~w:(w_of sz)
        ~force_rex:(force_rex_for sz [ rm_of dst ])
        ~opcodes:opc ~reg_idx:3 (rm_of dst)
  | Not (sz, dst) ->
      let opc = if sz = B then [ 0xf6 ] else [ 0xf7 ] in
      emit_modrm b ~w:(w_of sz)
        ~force_rex:(force_rex_for sz [ rm_of dst ])
        ~opcodes:opc ~reg_idx:2 (rm_of dst)
  | Inc (sz, dst) ->
      let opc = if sz = B then [ 0xfe ] else [ 0xff ] in
      emit_modrm b ~w:(w_of sz)
        ~force_rex:(force_rex_for sz [ rm_of dst ])
        ~opcodes:opc ~reg_idx:0 (rm_of dst)
  | Dec (sz, dst) ->
      let opc = if sz = B then [ 0xfe ] else [ 0xff ] in
      emit_modrm b ~w:(w_of sz)
        ~force_rex:(force_rex_for sz [ rm_of dst ])
        ~opcodes:opc ~reg_idx:1 (rm_of dst)
  | Shift (sh, sz, dst, n) ->
      (* Any imm8 encodes; hardware masks the count at execution. *)
      if n < 0 || n > 255 then invalid_arg "Encode: shift count";
      let opc = if sz = B then [ 0xc0 ] else [ 0xc1 ] in
      emit_modrm b ~w:(w_of sz)
        ~force_rex:(force_rex_for sz [ rm_of dst ])
        ~opcodes:opc ~reg_idx:(shift_digit sh) (rm_of dst);
      u8 b n
  | Push r ->
      let i = Reg.index r in
      if i >= 8 then u8 b 0x41;
      u8 b (0x50 lor (i land 7))
  | Pop r ->
      let i = Reg.index r in
      if i >= 8 then u8 b 0x41;
      u8 b (0x58 lor (i land 7))
  | Pushfq -> u8 b 0x9c
  | Popfq -> u8 b 0x9d
  | Call rel ->
      if not (fits_i32 rel) then invalid_arg "Encode: call rel32 out of range";
      u8 b 0xe8;
      u32 b rel
  | Call_ind op ->
      emit_modrm b ~w:false ~force_rex:false ~opcodes:[ 0xff ] ~reg_idx:2
        (rm_of op)
  | Ret -> u8 b 0xc3
  | Jmp rel ->
      if not (fits_i32 rel) then invalid_arg "Encode: jmp rel32 out of range";
      u8 b jmp_opcode;
      u32 b rel
  | Jmp_short rel ->
      if not (fits_i8 rel) then invalid_arg "Encode: rel8 out of range";
      u8 b jmp_short_opcode;
      u8 b rel
  | Jmp_ind op ->
      emit_modrm b ~w:false ~force_rex:false ~opcodes:[ 0xff ] ~reg_idx:4
        (rm_of op)
  | Jcc (c, rel) ->
      if not (fits_i32 rel) then invalid_arg "Encode: jcc rel32 out of range";
      u8 b 0x0f;
      u8 b (0x80 lor Insn.cc_index c);
      u32 b rel
  | Jcc_short (c, rel) ->
      if not (fits_i8 rel) then invalid_arg "Encode: rel8 out of range";
      u8 b (0x70 lor Insn.cc_index c);
      u8 b rel
  | Nop n -> (
      match n with
      | 1 -> u8 b 0x90
      | 2 -> List.iter (u8 b) [ 0x66; 0x90 ]
      | 3 -> List.iter (u8 b) [ 0x0f; 0x1f; 0x00 ]
      | 4 -> List.iter (u8 b) [ 0x0f; 0x1f; 0x40; 0x00 ]
      | 5 -> List.iter (u8 b) [ 0x0f; 0x1f; 0x44; 0x00; 0x00 ]
      | 6 -> List.iter (u8 b) [ 0x66; 0x0f; 0x1f; 0x44; 0x00; 0x00 ]
      | 7 -> List.iter (u8 b) [ 0x0f; 0x1f; 0x80; 0x00; 0x00; 0x00; 0x00 ]
      | 8 -> List.iter (u8 b) [ 0x0f; 0x1f; 0x84; 0x00; 0x00; 0x00; 0x00; 0x00 ]
      | n when n >= 9 && n <= 15 ->
          (* Compilers pad with 10-15-byte nops: the 9-byte form behind
             extra operand-size prefixes, up to the 15-byte limit. *)
          for _ = 1 to n - 9 do
            u8 b 0x66
          done;
          List.iter (u8 b)
            [ 0x66; 0x0f; 0x1f; 0x84; 0x00; 0x00; 0x00; 0x00; 0x00 ]
      | _ -> invalid_arg "Encode: nop length must be 1..15")
  | Endbr64 -> List.iter (u8 b) [ 0xf3; 0x0f; 0x1e; 0xfa ]
  | Int3 -> u8 b 0xcc
  | Int n ->
      u8 b 0xcd;
      u8 b n
  | Syscall ->
      u8 b 0x0f;
      u8 b 0x05
  | Ud2 ->
      u8 b 0x0f;
      u8 b 0x0b
  | Unknown byte -> u8 b byte

let encode insn =
  let b = Buffer.create 16 in
  emit b insn;
  Buffer.contents b

let encode_with_prefixes prefixes insn =
  let b = Buffer.create 16 in
  List.iter (u8 b) prefixes;
  emit b insn;
  Buffer.contents b

let length insn = String.length (encode insn)

let encode_jmp_rel32 rel = encode (Insn.Jmp rel)
