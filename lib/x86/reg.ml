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

let all =
  [| RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 |]

let index = function
  | RAX -> 0
  | RCX -> 1
  | RDX -> 2
  | RBX -> 3
  | RSP -> 4
  | RBP -> 5
  | RSI -> 6
  | RDI -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let of_index i =
  if i < 0 || i > 15 then invalid_arg "Reg.of_index";
  all.(i)

let of_name = function
  | "rax" -> Some RAX
  | "rcx" -> Some RCX
  | "rdx" -> Some RDX
  | "rbx" -> Some RBX
  | "rsp" -> Some RSP
  | "rbp" -> Some RBP
  | "rsi" -> Some RSI
  | "rdi" -> Some RDI
  | "r8" -> Some R8
  | "r9" -> Some R9
  | "r10" -> Some R10
  | "r11" -> Some R11
  | "r12" -> Some R12
  | "r13" -> Some R13
  | "r14" -> Some R14
  | "r15" -> Some R15
  | _ -> None

let name64 = function
  | RAX -> "%rax"
  | RCX -> "%rcx"
  | RDX -> "%rdx"
  | RBX -> "%rbx"
  | RSP -> "%rsp"
  | RBP -> "%rbp"
  | RSI -> "%rsi"
  | RDI -> "%rdi"
  | R8 -> "%r8"
  | R9 -> "%r9"
  | R10 -> "%r10"
  | R11 -> "%r11"
  | R12 -> "%r12"
  | R13 -> "%r13"
  | R14 -> "%r14"
  | R15 -> "%r15"

let name32 = function
  | RAX -> "%eax"
  | RCX -> "%ecx"
  | RDX -> "%edx"
  | RBX -> "%ebx"
  | RSP -> "%esp"
  | RBP -> "%ebp"
  | RSI -> "%esi"
  | RDI -> "%edi"
  | R8 -> "%r8d"
  | R9 -> "%r9d"
  | R10 -> "%r10d"
  | R11 -> "%r11d"
  | R12 -> "%r12d"
  | R13 -> "%r13d"
  | R14 -> "%r14d"
  | R15 -> "%r15d"

let name8 = function
  | RAX -> "%al"
  | RCX -> "%cl"
  | RDX -> "%dl"
  | RBX -> "%bl"
  | RSP -> "%spl"
  | RBP -> "%bpl"
  | RSI -> "%sil"
  | RDI -> "%dil"
  | R8 -> "%r8b"
  | R9 -> "%r9b"
  | R10 -> "%r10b"
  | R11 -> "%r11b"
  | R12 -> "%r12b"
  | R13 -> "%r13b"
  | R14 -> "%r14b"
  | R15 -> "%r15b"

let equal a b = index a = index b
