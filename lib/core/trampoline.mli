(** Trampoline templates and code generation.

    Every successful tactic diverts control flow to a trampoline that
    (optionally) runs an instrumentation payload, executes the displaced
    instruction, and jumps back to the instruction after the patch
    location. PC-relative displaced instructions (branches, RIP-relative
    operands) are re-encoded against their new location; instructions that
    leave unconditionally ([jmp], [ret]) need no return jump.

    Emission is address-dependent (the displacements) but length-stable:
    [emit] at any address yields the same number of bytes, so the rewriter
    can size a trampoline before allocating its home. *)

(** Call-trampoline register discipline (the E9Tool call ABI).
    [Clean] brackets the call with RFLAGS + caller-saved save/restore on
    an instrumentation-private stack, so the instrumented program's
    architectural state — including the guest stack — is untouched.
    [Naked] emits only the argument loads and the call: fastest, and the
    caller takes responsibility for whatever the callee clobbers. *)
type call_mode = Clean | Naked

(** Static arguments passed to a call trampoline, loaded into the System
    V argument registers (%rdi, %rsi, %rdx, %rcx, %r8, %r9) in order. *)
type call_arg =
  | Arg_int of int  (** integer literal *)
  | Arg_addr  (** the patch site's address *)
  | Arg_size  (** the patched instruction's length in bytes *)
  | Arg_asm
      (** pointer to the instruction's NUL-terminated disassembly string,
          embedded in the trampoline behind its terminal transfer *)
  | Arg_instr  (** pointer to the instruction's encoded bytes, embedded *)
  | Arg_reg of E9_x86.Reg.t
      (** the register's value at the patch site. In [Clean] mode every
          register (including %rsp) reads its pre-trampoline value from
          the save area; in [Naked] mode a source that an earlier
          argument register already overwrote raises [Invalid_argument]
          at emission time *)

type template =
  | Empty
      (** displaced instruction + return — the paper's "empty
          instrumentation" used for the Table 1 / Figure 4 overheads *)
  | Counter
      (** a {!E9_emu.Hostcall.count} host call first — basic-block /
          jump counting instrumentation *)
  | Lowfat_check_scratch of int
      (** park %rdi in the given 8-byte scratch slot (an
          instrumentation-private page, not the guest stack),
          re-materialize the written-to pointer with [lea], pass it to
          the {!E9_emu.Hostcall.check} redzone check, restore %rdi, then
          run the displaced instruction (paper §6.3). Only valid for
          heap-write instructions. *)
  | Print of { text : string; scratch : int }
      (** stash %rdi in the 8-byte [scratch] slot (an
          instrumentation-private page, not the guest stack), point it at
          the embedded NUL-terminated [text] and raise the
          {!E9_emu.Hostcall.print} host call; flags untouched *)
  | Trap
      (** raise the {!E9_emu.Hostcall.trap} host call — a SIGTRAP-style
          instrumentation event the harness counts and continues past *)
  | Call of {
      target : int;  (** absolute address of the instrumentation function *)
      mode : call_mode;
      args : call_arg list;  (** at most 6 *)
      scratch : int;  (** 8-byte slot for the original %rsp / %rdi *)
      stack_top : int;
          (** top of the instrumentation-private stack the [Clean]
              bracket switches to before spilling state *)
    }
      (** call an instrumentation function inside the patched binary
          (the E9Tool mechanism; {!E9_tool.Tool.inject} appends one) with
          the documented argument-passing ABI *)
  | Custom_pre of (E9_x86.Asm.t -> unit)
      (** arbitrary payload before the displaced instruction *)
  | Replace of (E9_x86.Asm.t -> ret:int -> unit)
      (** binary patching: the payload replaces the displaced instruction
          entirely and must end with its own control transfer; [ret] is
          the address just after the patched instruction *)

(** [emit template ~at ~insn ~insn_addr ~insn_len] generates trampoline
    code to live at address [at], for the instruction [insn] originally at
    [insn_addr] (size [insn_len]). *)
val emit :
  template -> at:int -> insn:E9_x86.Insn.t -> insn_addr:int -> insn_len:int ->
  bytes

(** [references template] is the absolute addresses [template]'s own
    code reaches by a rel32 or RIP-relative displacement: the scratch
    slot of [Lowfat_check_scratch], [Print] and a [Clean] call, and a
    call's target. The tactic layer places every trampoline of
    [template] within rel32 reach of each. The private stack of a
    [Clean] call is loaded absolutely and is not among them. *)
val references : template -> int list

(** [displaceable insn] — can a trampoline re-create [insn] elsewhere?
    Everything but [int3], [ud2] and undecodable bytes. This is the one
    rule: the tactic layer plans no trampoline and picks no eviction
    victim that fails it, and {!emit} raises [Invalid_argument] on one. *)
val displaceable : E9_x86.Insn.t -> bool

(** [size template ~at ~insn ~insn_addr ~insn_len] is the length of
    [emit template ~at ~insn ~insn_addr ~insn_len]. Every displacement a
    trampoline holds is encoded at full width whatever its value, so the
    length is the same at every [at] from which the template's
    {!references} and the displaced instruction's targets are in rel32
    reach: one sizing at any such address serves every placement. At an
    address out of that reach, [emit] (and so [size]) raises
    [Invalid_argument]. *)
val size :
  template -> at:int -> insn:E9_x86.Insn.t -> insn_addr:int -> insn_len:int ->
  int
