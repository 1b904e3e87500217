(** Instruction classification predicates used by the patch-location
    selectors (paper applications A1 and A2) and by the rewriter itself. *)

(** [is_jump i] — unconditional or conditional jump ([jmp]/[jcc], direct or
    indirect), the paper's application A1 selector. Calls and returns are
    not jumps for this purpose. *)
val is_jump : Insn.t -> bool

(** [is_heap_write i] — the instruction may write through a heap pointer:
    it has a memory destination whose base is neither [%rsp] nor
    RIP-relative (the paper's application A2 selector, §6.3). *)
val is_heap_write : Insn.t -> bool

(** [mem_written i] — the memory operand written by [i], if any. *)
val mem_written : Insn.t -> Insn.mem option

(** [branch_rel i] — the relative displacement of a direct branch. *)
val branch_rel : Insn.t -> int option
