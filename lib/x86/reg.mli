(** The sixteen x86_64 general-purpose registers. *)

type t =
  | RAX
  | RCX
  | RDX
  | RBX
  | RSP
  | RBP
  | RSI
  | RDI
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

(** [index r] is the 4-bit hardware encoding (RAX = 0 … R15 = 15). *)
val index : t -> int

(** [of_index i] inverts [index]. Requires [0 <= i <= 15]. *)
val of_index : int -> t

(** [of_name s] parses a bare lowercase 64-bit register name ("rax" …
    "r15"), as written in patch specs and tool match expressions. *)
val of_name : string -> t option

(** All registers, in encoding order. *)
val all : t array

(** [name64 r] is the AT&T-style 64-bit name, e.g. ["%rax"]. *)
val name64 : t -> string

(** [name32 r] is the 32-bit name, e.g. ["%eax"]. *)
val name32 : t -> string

(** [name8 r] is the low-byte name, e.g. ["%al"] (REX-style for 4–7). *)
val name8 : t -> string

val equal : t -> t -> bool
