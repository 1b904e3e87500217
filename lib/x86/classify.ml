let is_jump = function
  | Insn.Jmp _ | Insn.Jmp_short _ | Insn.Jmp_ind _ | Insn.Jcc _
  | Insn.Jcc_short _ ->
      true
  | Insn.Mov _ | Insn.Movabs _ | Insn.Lea _ | Insn.Alu _ | Insn.Imul _
  | Insn.Movzx _ | Insn.Movsx _ | Insn.Setcc _ | Insn.Cmov _ | Insn.Neg _
  | Insn.Not _ | Insn.Inc _ | Insn.Dec _ | Insn.Shift _ | Insn.Push _
  | Insn.Pop _ | Insn.Pushfq | Insn.Popfq | Insn.Call _ | Insn.Call_ind _
  | Insn.Ret | Insn.Nop _ | Insn.Endbr64 | Insn.Int3 | Insn.Int _
  | Insn.Syscall | Insn.Ud2 | Insn.Unknown _ ->
      false

let mem_written = function
  | Insn.Mov (_, Insn.Mem m, _) -> Some m
  | Insn.Alu
      ( (Insn.Add | Insn.Adc | Insn.Or | Insn.And | Insn.Sub | Insn.Sbb | Insn.Xor),
        _, Insn.Mem m, _ ) ->
      Some m
  | Insn.Inc (_, Insn.Mem m) | Insn.Dec (_, Insn.Mem m) -> Some m
  | Insn.Shift (_, _, Insn.Mem m, _) -> Some m
  | Insn.Setcc (_, Insn.Mem m) -> Some m
  | Insn.Neg (_, Insn.Mem m) | Insn.Not (_, Insn.Mem m) -> Some m
  | Insn.Movzx _ | Insn.Movsx _ | Insn.Cmov _ | Insn.Setcc _ | Insn.Neg _
  | Insn.Not _ | Insn.Inc _ | Insn.Dec _
  | Insn.Alu ((Insn.Cmp | Insn.Test), _, _, _)
  | Insn.Mov _ | Insn.Movabs _ | Insn.Lea _ | Insn.Alu _ | Insn.Imul _
  | Insn.Shift _ | Insn.Push _ | Insn.Pop _ | Insn.Pushfq | Insn.Popfq
  | Insn.Call _ | Insn.Call_ind _ | Insn.Ret | Insn.Jmp _ | Insn.Jmp_short _
  | Insn.Jmp_ind _ | Insn.Jcc _ | Insn.Jcc_short _ | Insn.Nop _
  | Insn.Endbr64 | Insn.Int3 | Insn.Int _ | Insn.Syscall | Insn.Ud2
  | Insn.Unknown _ ->
      None

let is_heap_write insn =
  match mem_written insn with
  | Some m ->
      (not m.rip_rel)
      && (match m.base with
         | Some r -> not (Reg.equal r Reg.RSP)
         | None -> false)
  | None -> false

let branch_rel = function
  | Insn.Jmp rel | Insn.Jmp_short rel | Insn.Jcc (_, rel)
  | Insn.Jcc_short (_, rel) | Insn.Call rel ->
      Some rel
  | _ -> None
