(** Abstract syntax of the x86_64 instruction subset.

    This subset covers the instruction classes that dominate compiled code
    (data movement, ALU operations, stack traffic, and all control flow) and
    is closed under the encoder ({!Encode}), the decoder ({!Decode}), and
    the emulator ([E9_emu]). PC-relative displacements ([rel8]/[rel32]) are
    stored relative to the *end* of the instruction, exactly as encoded. *)

(** Operand width: 8-bit, 32-bit, 64-bit. (16-bit operations are not
    generated; the 0x66 prefix appears only as jump padding.) *)
type size = B | L | Q

(** SIB index scale factor. *)
type scale = S1 | S2 | S4 | S8

(** A memory operand. When [rip_rel] is true, [base] and [index] must be
    [None] and [disp] is relative to the end of the instruction. *)
type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int;
  rip_rel : bool;
}

type operand = Reg of Reg.t | Imm of int | Mem of mem

(** Two-operand ALU operations ([Cmp] and [Test] write only flags;
    [Adc]/[Sbb] consume the carry flag). *)
type alu = Add | Adc | Or | And | Sub | Sbb | Xor | Cmp | Test

type shift = Shl | Shr | Sar

(** Condition codes in hardware ([tttn]) encoding order. *)
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
  | Mov of size * operand * operand  (** [Mov (sz, dst, src)]; not both mem *)
  | Movabs of Reg.t * int64  (** 64-bit immediate load ([b8+r]) *)
  | Lea of Reg.t * mem
  | Alu of alu * size * operand * operand  (** [Alu (op, sz, dst, src)] *)
  | Imul of Reg.t * operand  (** two-operand 64-bit multiply *)
  | Movzx of Reg.t * operand  (** [movzbq]: byte r/m zero-extended to 64 *)
  | Movsx of Reg.t * operand  (** [movsbq]: byte r/m sign-extended to 64 *)
  | Setcc of cc * operand  (** byte r/m := 1/0 from the condition *)
  | Cmov of cc * Reg.t * operand  (** 64-bit conditional move *)
  | Neg of size * operand
  | Not of size * operand
  | Inc of size * operand  (** leaves CF unchanged *)
  | Dec of size * operand  (** leaves CF unchanged *)
  | Shift of shift * size * operand * int  (** immediate shift count *)
  | Push of Reg.t
  | Pop of Reg.t
  | Pushfq  (** save RFLAGS (trampolines bracketing instrumentation) *)
  | Popfq
  | Call of int  (** [call rel32] *)
  | Call_ind of operand
  | Ret
  | Jmp of int  (** [jmpq rel32] — the "e9" of E9Patch *)
  | Jmp_short of int  (** [jmp rel8] *)
  | Jmp_ind of operand
  | Jcc of cc * int  (** [jcc rel32] *)
  | Jcc_short of cc * int  (** [jcc rel8] *)
  | Nop of int  (** multi-byte nop of total length 1..9 *)
  | Endbr64  (** CET indirect-branch landing pad ([f3 0f 1e fa]); nop-class *)
  | Int3
  | Int of int  (** [int imm8]; ids >= 0x40 are emulator host calls *)
  | Syscall
  | Ud2
  | Unknown of int  (** opaque byte (linear-disassembly fallthrough) *)

(** [cc_index c] is the 4-bit [tttn] encoding. *)
val cc_index : cc -> int

(** [cc_of_index i] inverts [cc_index]. Requires [0 <= i <= 15]. *)
val cc_of_index : int -> cc

(** [mem ?base ?index ?disp ()] builds a non-RIP-relative memory operand. *)
val mem : ?base:Reg.t -> ?index:Reg.t * scale -> ?disp:int -> unit -> mem

(** [rip_mem disp] is a RIP-relative memory operand. *)
val rip_mem : int -> mem

(** [scale_factor s] is 1, 2, 4 or 8. *)
val scale_factor : scale -> int

(** [operands i] lists the instruction's explicit operands, destination
    first — the [op\[0\]], [op\[1\]] attributes of the tool matcher.
    Direct branch displacements are an attribute ([target]), not an
    operand; indirect branches expose their r/m operand. *)
val operands : t -> operand list

(** [map_mem f i] is [i] with [f] applied to each of its memory operands
    (those {!operands} lists, and [lea]'s address); every other field is
    unchanged. *)
val map_mem : (mem -> mem) -> t -> t

(** [uses_reg i r] — does any operand mention [r], as a value or as a
    memory-address component? *)
val uses_reg : t -> Reg.t -> bool

(** [to_string i] is AT&T-flavoured assembly (for logs and dumps). *)
val to_string : t -> string
val equal : t -> t -> bool
