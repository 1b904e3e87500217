type size = B | L | Q
type scale = S1 | S2 | S4 | S8

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int;
  rip_rel : bool;
}

type operand = Reg of Reg.t | Imm of int | Mem of mem
type alu = Add | Adc | Or | And | Sub | Sbb | Xor | Cmp | Test
type shift = Shl | Shr | Sar

type cc =
  | O
  | NO
  | B_
  | AE
  | E
  | NE
  | BE
  | A
  | S_
  | NS
  | P
  | NP
  | L_
  | GE
  | LE
  | G

type t =
  | Mov of size * operand * operand
  | Movabs of Reg.t * int64
  | Lea of Reg.t * mem
  | Alu of alu * size * operand * operand
  | Imul of Reg.t * operand
  | Movzx of Reg.t * operand  (* byte r/m zero-extended into a 64-bit reg *)
  | Movsx of Reg.t * operand  (* byte r/m sign-extended into a 64-bit reg *)
  | Setcc of cc * operand  (* byte r/m := condition *)
  | Cmov of cc * Reg.t * operand  (* 64-bit conditional move *)
  | Neg of size * operand
  | Not of size * operand
  | Inc of size * operand
  | Dec of size * operand
  | Shift of shift * size * operand * int
  | Push of Reg.t
  | Pop of Reg.t
  | Pushfq
  | Popfq
  | Call of int
  | Call_ind of operand
  | Ret
  | Jmp of int
  | Jmp_short of int
  | Jmp_ind of operand
  | Jcc of cc * int
  | Jcc_short of cc * int
  | Nop of int
  | Endbr64
  | Int3
  | Int of int
  | Syscall
  | Ud2
  | Unknown of int

let cc_all = [| O; NO; B_; AE; E; NE; BE; A; S_; NS; P; NP; L_; GE; LE; G |]

let cc_index c =
  let rec find i = if cc_all.(i) == c then i else find (i + 1) in
  find 0

let cc_of_index i =
  if i < 0 || i > 15 then invalid_arg "Insn.cc_of_index";
  cc_all.(i)

let mem ?base ?index ?(disp = 0) () = { base; index; disp; rip_rel = false }
let rip_mem disp = { base = None; index = None; disp; rip_rel = true }
let scale_factor = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

(* Explicit operands, destination first — the [op[0]], [op[1]] the tool
   matcher exposes. Branch displacements are attributes ([target]), not
   operands; indirect branches expose their r/m operand. *)
let operands = function
  | Mov (_, dst, src) | Alu (_, _, dst, src) -> [ dst; src ]
  | Movabs (r, v) -> [ Reg r; Imm (Int64.to_int v) ]
  | Lea (r, m) -> [ Reg r; Mem m ]
  | Imul (r, op) | Movzx (r, op) | Movsx (r, op) | Cmov (_, r, op) ->
      [ Reg r; op ]
  | Setcc (_, op) | Neg (_, op) | Not (_, op) | Inc (_, op) | Dec (_, op) ->
      [ op ]
  | Shift (_, _, dst, n) -> [ dst; Imm n ]
  | Push r | Pop r -> [ Reg r ]
  | Jmp_ind op | Call_ind op -> [ op ]
  | Int n -> [ Imm n ]
  | Pushfq | Popfq | Call _ | Ret | Jmp _ | Jmp_short _ | Jcc _
  | Jcc_short _ | Nop _ | Endbr64 | Int3 | Syscall | Ud2 | Unknown _ ->
      []

(* [operands]' mapping twin: [f] rewrites every memory operand in place. *)
let map_mem f i =
  let op = function Mem m -> Mem (f m) | (Reg _ | Imm _) as o -> o in
  match i with
  | Mov (sz, dst, src) -> Mov (sz, op dst, op src)
  | Alu (a, sz, dst, src) -> Alu (a, sz, op dst, op src)
  | Lea (r, m) -> Lea (r, f m)
  | Imul (r, o) -> Imul (r, op o)
  | Movzx (r, o) -> Movzx (r, op o)
  | Movsx (r, o) -> Movsx (r, op o)
  | Cmov (c, r, o) -> Cmov (c, r, op o)
  | Setcc (c, o) -> Setcc (c, op o)
  | Neg (sz, o) -> Neg (sz, op o)
  | Not (sz, o) -> Not (sz, op o)
  | Inc (sz, o) -> Inc (sz, op o)
  | Dec (sz, o) -> Dec (sz, op o)
  | Shift (sh, sz, dst, n) -> Shift (sh, sz, op dst, n)
  | Jmp_ind o -> Jmp_ind (op o)
  | Call_ind o -> Call_ind (op o)
  | ( Movabs _ | Push _ | Pop _ | Pushfq | Popfq | Call _ | Ret | Jmp _
    | Jmp_short _ | Jcc _ | Jcc_short _ | Nop _ | Endbr64 | Int3 | Int _
    | Syscall | Ud2 | Unknown _ ) as i ->
      i

(* Registers an operand list mentions (value or address component). *)
let regs_of_operand = function
  | Reg r -> [ r ]
  | Imm _ -> []
  | Mem m ->
      (match m.base with Some b -> [ b ] | None -> [])
      @ (match m.index with Some (i, _) -> [ i ] | None -> [])

let uses_reg i r =
  List.exists
    (fun op -> List.exists (Reg.equal r) (regs_of_operand op))
    (operands i)

let cc_name = function
  | O -> "o"
  | NO -> "no"
  | B_ -> "b"
  | AE -> "ae"
  | E -> "e"
  | NE -> "ne"
  | BE -> "be"
  | A -> "a"
  | S_ -> "s"
  | NS -> "ns"
  | P -> "p"
  | NP -> "np"
  | L_ -> "l"
  | GE -> "ge"
  | LE -> "le"
  | G -> "g"

let alu_name = function
  | Add -> "add"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | Or -> "or"
  | And -> "and"
  | Sub -> "sub"
  | Xor -> "xor"
  | Cmp -> "cmp"
  | Test -> "test"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"

let reg_name sz r =
  match sz with B -> Reg.name8 r | L -> Reg.name32 r | Q -> Reg.name64 r

let pp_mem ppf m =
  if m.rip_rel then Format.fprintf ppf "%d(%%rip)" m.disp
  else begin
    if m.disp <> 0 then Format.fprintf ppf "%d" m.disp;
    Format.pp_print_char ppf '(';
    (match m.base with
    | Some b -> Format.pp_print_string ppf (Reg.name64 b)
    | None -> ());
    (match m.index with
    | Some (r, s) ->
        Format.fprintf ppf ",%s,%d" (Reg.name64 r) (scale_factor s)
    | None -> ());
    Format.pp_print_char ppf ')'
  end

let pp_operand sz ppf = function
  | Reg r -> Format.pp_print_string ppf (reg_name sz r)
  | Imm i -> Format.fprintf ppf "$%d" i
  | Mem m -> pp_mem ppf m

let size_suffix = function B -> "b" | L -> "l" | Q -> "q"

let pp ppf insn =
  let two name sz dst src =
    Format.fprintf ppf "%s%s %a,%a" name (size_suffix sz) (pp_operand sz) src
      (pp_operand sz) dst
  in
  match insn with
  | Mov (sz, dst, src) -> two "mov" sz dst src
  | Movabs (r, v) -> Format.fprintf ppf "movabs $0x%Lx,%s" v (Reg.name64 r)
  | Lea (r, m) -> Format.fprintf ppf "lea %a,%s" pp_mem m (Reg.name64 r)
  | Alu (op, sz, dst, src) -> two (alu_name op) sz dst src
  | Imul (r, src) ->
      Format.fprintf ppf "imul %a,%s" (pp_operand Q) src (Reg.name64 r)
  | Movzx (r, src) ->
      Format.fprintf ppf "movzbq %a,%s" (pp_operand B) src (Reg.name64 r)
  | Movsx (r, src) ->
      Format.fprintf ppf "movsbq %a,%s" (pp_operand B) src (Reg.name64 r)
  | Setcc (c, dst) ->
      Format.fprintf ppf "set%s %a" (cc_name c) (pp_operand B) dst
  | Cmov (c, r, src) ->
      Format.fprintf ppf "cmov%s %a,%s" (cc_name c) (pp_operand Q) src
        (Reg.name64 r)
  | Neg (sz, dst) ->
      Format.fprintf ppf "neg%s %a" (size_suffix sz) (pp_operand sz) dst
  | Not (sz, dst) ->
      Format.fprintf ppf "not%s %a" (size_suffix sz) (pp_operand sz) dst
  | Inc (sz, dst) ->
      Format.fprintf ppf "inc%s %a" (size_suffix sz) (pp_operand sz) dst
  | Dec (sz, dst) ->
      Format.fprintf ppf "dec%s %a" (size_suffix sz) (pp_operand sz) dst
  | Shift (sh, sz, dst, n) ->
      Format.fprintf ppf "%s%s $%d,%a" (shift_name sh) (size_suffix sz) n
        (pp_operand sz) dst
  | Push r -> Format.fprintf ppf "push %s" (Reg.name64 r)
  | Pop r -> Format.fprintf ppf "pop %s" (Reg.name64 r)
  | Pushfq -> Format.pp_print_string ppf "pushfq"
  | Popfq -> Format.pp_print_string ppf "popfq"
  | Call rel -> Format.fprintf ppf "callq .%+d" rel
  | Call_ind op -> Format.fprintf ppf "callq *%a" (pp_operand Q) op
  | Ret -> Format.pp_print_string ppf "retq"
  | Jmp rel -> Format.fprintf ppf "jmpq .%+d" rel
  | Jmp_short rel -> Format.fprintf ppf "jmp .%+d" rel
  | Jmp_ind op -> Format.fprintf ppf "jmpq *%a" (pp_operand Q) op
  | Jcc (c, rel) -> Format.fprintf ppf "j%s .%+d" (cc_name c) rel
  | Jcc_short (c, rel) -> Format.fprintf ppf "j%s(short) .%+d" (cc_name c) rel
  | Nop n -> Format.fprintf ppf "nop(%d)" n
  | Endbr64 -> Format.pp_print_string ppf "endbr64"
  | Int3 -> Format.pp_print_string ppf "int3"
  | Int n -> Format.fprintf ppf "int $0x%x" n
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Ud2 -> Format.pp_print_string ppf "ud2"
  | Unknown b -> Format.fprintf ppf "(bad:%02x)" b

let to_string insn = Format.asprintf "%a" pp insn
let equal (a : t) (b : t) = a = b
