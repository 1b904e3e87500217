type decoded = { insn : Insn.t; len : int; prefixes : int list }

exception Truncated

(* A cursor over the bytes, whose [limit] is at most their length. Reads
   at or past the limit raise [Truncated], which the toplevel decoder
   converts into a one-byte [Unknown]. *)
type cursor = { bytes : Bytes.t; limit : int; start : int; mutable pos : int }

let byte c =
  if c.pos >= c.limit then raise Truncated;
  let v = Char.code (Bytes.unsafe_get c.bytes c.pos) in
  c.pos <- c.pos + 1;
  v

let i8 c =
  let v = byte c in
  if v land 0x80 <> 0 then v - 0x100 else v

let i32 c =
  let b0 = byte c in
  let b1 = byte c in
  let b2 = byte c in
  let b3 = byte c in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let i64 c =
  let lo = i32 c land 0xffff_ffff in
  let hi = i32 c in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let is_legacy_prefix b =
  match b with
  | 0x26 | 0x2e | 0x36 | 0x3e | 0x64 | 0x65 | 0x66 | 0x67 | 0xf0 | 0xf2 | 0xf3
    ->
      true
  | _ -> false

let is_rex b = b land 0xf0 = 0x40

(* Decode ModRM (+SIB +disp) into the reg-field index and an r/m operand. *)
let modrm c ~rex_r ~rex_x ~rex_b =
  let m = byte c in
  let md = m lsr 6 in
  let reg = ((m lsr 3) land 7) lor (rex_r lsl 3) in
  let rm = m land 7 in
  if md = 0b11 then (reg, Insn.Reg (Reg.of_index (rm lor (rex_b lsl 3))))
  else begin
    let base, index =
      if rm = 0b100 then begin
        (* SIB byte *)
        let sib = byte c in
        let scale =
          match sib lsr 6 with
          | 0 -> Insn.S1
          | 1 -> Insn.S2
          | 2 -> Insn.S4
          | _ -> Insn.S8
        in
        let idx = ((sib lsr 3) land 7) lor (rex_x lsl 3) in
        let bse = (sib land 7) lor (rex_b lsl 3) in
        let index = if idx = 4 then None else Some (Reg.of_index idx, scale) in
        let base =
          if sib land 7 = 0b101 && md = 0b00 then None
          else Some (Reg.of_index bse)
        in
        (base, index)
      end
      else if rm = 0b101 && md = 0b00 then (None, None) (* RIP-relative *)
      else (Some (Reg.of_index (rm lor (rex_b lsl 3))), None)
    in
    let rip_rel = rm = 0b101 && md = 0b00 in
    let disp =
      match md with
      | 0b01 -> i8 c
      | 0b10 -> i32 c
      | _ -> if rip_rel || base = None then i32 c else 0
    in
    (reg, Insn.Mem { base; index; disp; rip_rel })
  end

let alu_of_base = function
  | 0x00 -> Some Insn.Add
  | 0x10 -> Some Insn.Adc
  | 0x18 -> Some Insn.Sbb
  | 0x08 -> Some Insn.Or
  | 0x20 -> Some Insn.And
  | 0x28 -> Some Insn.Sub
  | 0x30 -> Some Insn.Xor
  | 0x38 -> Some Insn.Cmp
  | _ -> None

let alu_of_digit = function
  | 0 -> Some Insn.Add
  | 2 -> Some Insn.Adc
  | 3 -> Some Insn.Sbb
  | 1 -> Some Insn.Or
  | 4 -> Some Insn.And
  | 5 -> Some Insn.Sub
  | 6 -> Some Insn.Xor
  | 7 -> Some Insn.Cmp
  | _ -> None

let shift_of_digit = function
  | 4 -> Some Insn.Shl
  | 5 -> Some Insn.Shr
  | 7 -> Some Insn.Sar
  | _ -> None

(* Decode the opcode proper, after prefixes. [w] is REX.W. *)
let opcode c ~w ~rex_r ~rex_x ~rex_b : Insn.t =
  let sz_wl = if w then Insn.Q else Insn.L in
  let op = byte c in
  let alu_rm_r base sz =
    match alu_of_base base with
    | Some a ->
        let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
        Insn.Alu (a, sz, rm, Insn.Reg (Reg.of_index reg))
    | None -> Insn.Unknown op
  in
  let alu_r_rm base sz =
    match alu_of_base base with
    | Some a ->
        let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
        Insn.Alu (a, sz, Insn.Reg (Reg.of_index reg), rm)
    | None -> Insn.Unknown op
  in
  match op with
  | 0x0f -> (
      let op2 = byte c in
      match op2 with
      | 0x05 -> Insn.Syscall
      | 0x0b -> Insn.Ud2
      | 0x1e ->
          (* endbr64 is F3 0F 1E FA; the F3 lands in [prefixes]. Decoding
             it keeps the linear sweep synchronized at CET-marked function
             entries instead of resyncing byte-by-byte through a 4-byte
             blind spot. *)
          if byte c = 0xfa then Insn.Endbr64 else Insn.Unknown op
      | 0x1f ->
          let _, _ = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Nop (c.pos - c.start)
      | 0xaf ->
          let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Imul (Reg.of_index reg, rm)
      | 0xb6 ->
          let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Movzx (Reg.of_index reg, rm)
      | 0xbe ->
          let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Movsx (Reg.of_index reg, rm)
      | _ when op2 land 0xf0 = 0x90 ->
          let _, rm = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Setcc (Insn.cc_of_index (op2 land 0xf), rm)
      | _ when op2 land 0xf0 = 0x40 ->
          let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
          Insn.Cmov (Insn.cc_of_index (op2 land 0xf), Reg.of_index reg, rm)
      | _ when op2 land 0xf0 = 0x80 ->
          let rel = i32 c in
          Insn.Jcc (Insn.cc_of_index (op2 land 0xf), rel)
      | _ -> Insn.Unknown op)
  | 0x90 -> Insn.Nop (c.pos - c.start)
  | _ when op land 0xc7 = 0x00 || op land 0xc7 = 0x01 ->
      (* ALU r/m, r families: 00/01, 08/09, 20/21, 28/29, 30/31, 38/39 *)
      alu_rm_r (op land 0x38) (if op land 1 = 0 then Insn.B else sz_wl)
  | _ when op land 0xc7 = 0x02 || op land 0xc7 = 0x03 ->
      alu_r_rm (op land 0x38) (if op land 1 = 0 then Insn.B else sz_wl)
  | 0x80 | 0x81 | 0x83 -> (
      let sz = if op = 0x80 then Insn.B else sz_wl in
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      let imm = if op = 0x81 then i32 c else i8 c in
      match alu_of_digit (digit land 7) with
      | Some a -> Insn.Alu (a, sz, rm, Insn.Imm imm)
      | None -> Insn.Unknown op)
  | 0x84 | 0x85 ->
      let sz = if op = 0x84 then Insn.B else sz_wl in
      let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
      Insn.Alu (Insn.Test, sz, rm, Insn.Reg (Reg.of_index reg))
  | 0x88 | 0x89 ->
      let sz = if op = 0x88 then Insn.B else sz_wl in
      let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
      Insn.Mov (sz, rm, Insn.Reg (Reg.of_index reg))
  | 0x8a | 0x8b ->
      let sz = if op = 0x8a then Insn.B else sz_wl in
      let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
      Insn.Mov (sz, Insn.Reg (Reg.of_index reg), rm)
  | 0x8d -> (
      let reg, rm = modrm c ~rex_r ~rex_x ~rex_b in
      match rm with
      | Insn.Mem m -> Insn.Lea (Reg.of_index reg, m)
      | Insn.Reg _ | Insn.Imm _ -> Insn.Unknown op)
  | _ when op land 0xf8 = 0x50 ->
      Insn.Push (Reg.of_index ((op land 7) lor (rex_b lsl 3)))
  | _ when op land 0xf8 = 0x58 ->
      Insn.Pop (Reg.of_index ((op land 7) lor (rex_b lsl 3)))
  | _ when op land 0xf8 = 0xb8 ->
      let r = Reg.of_index ((op land 7) lor (rex_b lsl 3)) in
      if w then Insn.Movabs (r, i64 c)
      else
        let imm = i32 c in
        Insn.Mov (Insn.L, Insn.Reg r, Insn.Imm imm)
  | 0xc0 | 0xc1 -> (
      let sz = if op = 0xc0 then Insn.B else sz_wl in
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      let n = byte c in
      match shift_of_digit (digit land 7) with
      | Some sh -> Insn.Shift (sh, sz, rm, n)
      | None -> Insn.Unknown op)
  | 0x9c -> Insn.Pushfq
  | 0x9d -> Insn.Popfq
  | 0xc3 -> Insn.Ret
  | 0xc6 | 0xc7 ->
      let sz = if op = 0xc6 then Insn.B else sz_wl in
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      if digit land 7 <> 0 then Insn.Unknown op
      else
        let imm = if op = 0xc6 then i8 c else i32 c in
        Insn.Mov (sz, rm, Insn.Imm imm)
  | 0xf6 | 0xf7 -> (
      let sz = if op = 0xf6 then Insn.B else sz_wl in
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      match digit land 7 with
      | 0 ->
          let imm = if op = 0xf6 then i8 c else i32 c in
          Insn.Alu (Insn.Test, sz, rm, Insn.Imm imm)
      | 2 -> Insn.Not (sz, rm)
      | 3 -> Insn.Neg (sz, rm)
      | _ -> Insn.Unknown op)
  | 0xcc -> Insn.Int3
  | 0xcd -> Insn.Int (byte c)
  | 0xe8 -> Insn.Call (i32 c)
  | 0xe9 -> Insn.Jmp (i32 c)
  | 0xeb -> Insn.Jmp_short (i8 c)
  | _ when op land 0xf0 = 0x70 ->
      Insn.Jcc_short (Insn.cc_of_index (op land 0xf), i8 c)
  | 0xfe -> (
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      match digit land 7 with
      | 0 -> Insn.Inc (Insn.B, rm)
      | 1 -> Insn.Dec (Insn.B, rm)
      | _ -> Insn.Unknown op)
  | 0xff -> (
      let digit, rm = modrm c ~rex_r ~rex_x ~rex_b in
      match digit land 7 with
      | 0 -> Insn.Inc (sz_wl, rm)
      | 1 -> Insn.Dec (sz_wl, rm)
      | 2 -> Insn.Call_ind rm
      | 4 -> Insn.Jmp_ind rm
      | _ -> Insn.Unknown op)
  | _ -> Insn.Unknown op

let decode_cursor c =
  let start = c.pos in
  try
    (* Consume prefixes: any mix of legacy prefixes and REX bytes; only a
       REX immediately preceding the opcode takes effect, matching hardware
       (this is what makes T1's padded jumps legal). *)
    let prefixes = ref [] in
    let rex = ref 0 in
    let continue = ref true in
    while !continue do
      if c.pos >= c.limit then raise Truncated;
      let b = Char.code (Bytes.unsafe_get c.bytes c.pos) in
      if is_legacy_prefix b then begin
        prefixes := b :: !prefixes;
        rex := 0;
        c.pos <- c.pos + 1
      end
      else if is_rex b then begin
        prefixes := b :: !prefixes;
        rex := b;
        c.pos <- c.pos + 1
      end
      else continue := false
    done;
    let prefixes = List.rev !prefixes in
    (* The prefix scan is greedy: 0x90 after prefixes is still nop, and
       0x40-0x4f before a non-instruction still yields Unknown below. *)
    let w = !rex land 8 <> 0 in
    let rex_r = (!rex lsr 2) land 1 in
    let rex_x = (!rex lsr 1) land 1 in
    let rex_b = !rex land 1 in
    let insn = opcode c ~w ~rex_r ~rex_x ~rex_b in
    (* Reject degenerate prefix-only decodes of Unknown: report just the
       first byte so linear disassembly can resynchronize early. *)
    match insn with
    | Insn.Unknown _ when prefixes <> [] ->
        c.pos <- start + 1;
        { insn = Insn.Unknown (Char.code (Bytes.get c.bytes start)); len = 1; prefixes = [] }
    | _ -> { insn; len = c.pos - start; prefixes }
  with Truncated ->
    c.pos <- start + 1;
    { insn = Insn.Unknown (Char.code (Bytes.get c.bytes start)); len = 1; prefixes = [] }

let decode ?limit bytes pos =
  let limit =
    match limit with
    | None -> Bytes.length bytes
    | Some l -> min l (Bytes.length bytes)
  in
  if pos < 0 || pos >= limit then invalid_arg "Decode.decode";
  decode_cursor { bytes; limit; start = pos; pos }
