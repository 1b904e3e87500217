module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Classify = E9_x86.Classify
module Hostcall = E9_emu.Hostcall

type call_mode = Clean | Naked

type call_arg =
  | Arg_int of int
  | Arg_addr
  | Arg_size
  | Arg_asm
  | Arg_instr
  | Arg_reg of Reg.t

type template =
  | Empty
  | Counter
  | Lowfat_check_scratch of int
  | Print of { text : string; scratch : int }
  | Trap
  | Call of {
      target : int;
      mode : call_mode;
      args : call_arg list;
      scratch : int;
      stack_top : int;
    }
  | Custom_pre of (Asm.t -> unit)
  | Replace of (Asm.t -> ret:int -> unit)

(* Absolute-target branch helpers (lengths fixed: jmp 5, jcc 6, call 5). *)
let jmp_abs asm target = Asm.ins asm (Insn.Jmp (target - (Asm.here asm + 5)))
let call_abs asm target = Asm.ins asm (Insn.Call (target - (Asm.here asm + 5)))

let jcc_abs asm c target =
  Asm.ins asm (Insn.Jcc (c, target - (Asm.here asm + 6)))

(* The one rule for what a trampoline can re-create elsewhere: every
   instruction but the trap and fault opcodes and the bytes the decoder
   could not read. The tactic ladder asks it before planning a site or
   picking an eviction victim; [emit_displaced] refuses what it refuses. *)
let displaceable = function
  | Insn.Int3 | Insn.Ud2 | Insn.Unknown _ -> false
  | _ -> true

(* Emit the displaced instruction at the current position, preserving its
   original semantics, and return [true] when control flow continues to the
   next trampoline instruction (so a return jump is still needed). Direct
   branches are re-aimed at their original targets; anything else is
   re-encoded as is, with a RIP-relative operand moved so it still
   addresses [orig_next + disp]. Our encoder always uses disp32 for
   RIP-relative operands, so the instruction's new end is known before its
   new displacement is. *)
let emit_displaced asm ~insn ~insn_addr ~insn_len =
  let orig_next = insn_addr + insn_len in
  match insn with
  | Insn.Jmp rel | Insn.Jmp_short rel ->
      jmp_abs asm (orig_next + rel);
      false
  | Insn.Jcc (c, rel) | Insn.Jcc_short (c, rel) ->
      jcc_abs asm c (orig_next + rel);
      true
  | Insn.Call rel ->
      (* The callee returns into the trampoline, which then resumes after
         the patch site. (The return address differs from the original —
         the standard transparency caveat of trampoline-based rewriting.) *)
      call_abs asm (orig_next + rel);
      true
  | i when not (displaceable i) ->
      invalid_arg "Trampoline: cannot displace this instruction"
  | i ->
      let retarget (m : Insn.mem) =
        if m.rip_rel then
          let new_next = Asm.here asm + E9_x86.Encode.length i in
          { m with Insn.disp = orig_next + m.disp - new_next }
        else m
      in
      Asm.ins asm (Insn.map_mem retarget i);
      (match i with Insn.Ret | Insn.Jmp_ind _ -> false | _ -> true)

(* Caller-saved register state bracketing an instrumentation call: flags
   first (the displaced instruction may be a jcc), then the registers the
   System V ABI lets a callee clobber. *)
let caller_saved =
  [ Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9; Reg.R10;
    Reg.R11 ]

(* ------------------------------------------------------------------ *)
(* Tool templates: print, trap, and the argument-passing call ABI      *)
(* ------------------------------------------------------------------ *)

(* RIP-relative access to an absolute address outside the trampoline (the
   tool's scratch page). The encoder always emits disp32 for RIP-relative
   operands, so the length does not depend on the displacement and
   emission stays length-stable. *)
let riprel_to asm ~make ~addr =
  let len = E9_x86.Encode.length (make (Insn.rip_mem 0)) in
  Asm.ins asm (make (Insn.rip_mem (addr - (Asm.here asm + len))))

let store_reg_abs asm ~slot r =
  riprel_to asm ~addr:slot ~make:(fun m ->
      Insn.Mov (Insn.Q, Insn.Mem m, Insn.Reg r))

let load_reg_abs asm r ~slot =
  riprel_to asm ~addr:slot ~make:(fun m ->
      Insn.Mov (Insn.Q, Insn.Reg r, Insn.Mem m))

(* The lowfat payload (paper §6.3): park %rdi in the runtime's scratch
   slot, re-materialize the written-to pointer with [lea], raise the
   redzone check host call, restore. None of these touch the flags; %rdi
   is read before being clobbered, so the address is computed from
   original state. The slot is instrumentation-private (not the guest
   stack), so instrumented runs stay store-for-store identical outside
   the private page. *)
let emit_lowfat_scratch asm ~insn ~scratch =
  match Classify.mem_written insn with
  | None ->
      invalid_arg "Trampoline: lowfat check on a non-writing instruction"
  | Some m ->
      if m.Insn.rip_rel then
        invalid_arg "Trampoline: lowfat check on a global write";
      store_reg_abs asm ~slot:scratch Reg.RDI;
      Asm.ins asm (Insn.Lea (Reg.RDI, m));
      Asm.ins asm (Insn.Int Hostcall.check);
      load_reg_abs asm Reg.RDI ~slot:scratch

(* print: stash %rdi in the scratch slot (not on the guest stack — the
   trace oracle treats the scratch page as instrumentation-private, the
   guest stack as program state), point it at the embedded string, raise
   the print host call, restore. None of this touches the flags. The
   string bytes live behind the trampoline's terminal transfer, where the
   static verifier's linear decode never reaches. *)
let emit_print asm ~scratch =
  let str = Asm.fresh_label asm "print_str" in
  store_reg_abs asm ~slot:scratch Reg.RDI;
  Asm.lea_label asm Reg.RDI str;
  Asm.ins asm (Insn.Int Hostcall.print);
  load_reg_abs asm Reg.RDI ~slot:scratch;
  str

let sysv_arg_regs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 |]

(* Stack-slot offset of a caller-saved register after the clean bracket's
   pushfq + nine pushes ([caller_saved] order, so RAX sits deepest). *)
let saved_slot r =
  let rec index i = function
    | [] -> None
    | r' :: rest -> if Reg.equal r r' then Some i else index (i + 1) rest
  in
  Option.map (fun i -> 64 - (8 * i)) (index 0 caller_saved)

(* Load one static argument into its System V argument register.
   [clean] mode reads caller-saved values from their just-pushed slots
   and the original %rsp from the scratch slot, so argument order can
   never read a clobbered register. [naked] mode reads registers
   directly and must therefore reject sources already overwritten by an
   earlier argument. *)
let emit_arg asm ~mode ~insn ~insn_addr ~insn_len ~scratch ~loaded ~strings dst
    = function
  | Arg_int v -> Asm.ins asm (Insn.Movabs (dst, Int64.of_int v))
  | Arg_addr -> Asm.ins asm (Insn.Movabs (dst, Int64.of_int insn_addr))
  | Arg_size -> Asm.ins asm (Insn.Movabs (dst, Int64.of_int insn_len))
  | Arg_asm ->
      let l = Asm.fresh_label asm "arg_asm" in
      strings := (l, Insn.to_string insn ^ "\x00") :: !strings;
      Asm.lea_label asm dst l
  | Arg_instr ->
      let l = Asm.fresh_label asm "arg_instr" in
      strings := (l, E9_x86.Encode.encode insn) :: !strings;
      Asm.lea_label asm dst l
  | Arg_reg r -> (
      match mode with
      | Clean ->
          if Reg.equal r Reg.RSP then load_reg_abs asm dst ~slot:scratch
          else (
            match saved_slot r with
            | Some off ->
                Asm.ins asm
                  (Insn.Mov
                     ( Insn.Q,
                       Insn.Reg dst,
                       Insn.Mem (Insn.mem ~base:Reg.RSP ~disp:off ()) ))
            | None -> Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg dst, Insn.Reg r)))
      | Naked ->
          if List.exists (Reg.equal r) loaded then
            invalid_arg
              "Trampoline: naked call argument reads a register already \
               loaded as an earlier argument";
          Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg dst, Insn.Reg r)))

let emit_call asm ~target ~mode ~args ~scratch ~stack_top ~insn ~insn_addr
    ~insn_len =
  if List.length args > Array.length sysv_arg_regs then
    invalid_arg "Trampoline: call trampolines take at most 6 arguments";
  let strings = ref [] in
  (match mode with
  | Clean ->
      (* Switch to the instrumentation-private stack before spilling
         anything: every push lands in the scratch page, keeping the
         guest stack byte-identical to the uninstrumented run. *)
      store_reg_abs asm ~slot:scratch Reg.RSP;
      Asm.ins asm (Insn.Movabs (Reg.RSP, Int64.of_int stack_top));
      Asm.ins asm Insn.Pushfq;
      List.iter (fun r -> Asm.ins asm (Insn.Push r)) caller_saved
  | Naked -> ());
  List.iteri
    (fun i a ->
      let loaded =
        List.filteri (fun j _ -> j < i) (Array.to_list sysv_arg_regs)
      in
      emit_arg asm ~mode ~insn ~insn_addr ~insn_len ~scratch ~loaded ~strings
        sysv_arg_regs.(i) a)
    args;
  call_abs asm target;
  (match mode with
  | Clean ->
      List.iter (fun r -> Asm.ins asm (Insn.Pop r)) (List.rev caller_saved);
      Asm.ins asm Insn.Popfq;
      load_reg_abs asm Reg.RSP ~slot:scratch
  | Naked -> ());
  !strings

(* Embedded data (strings, instruction bytes) is placed only after the
   trampoline's terminal control transfer: the static verifier decodes
   forward from the trampoline head and must see instructions — and only
   instructions — until the final jump out. *)
let place_data asm entries =
  List.iter
    (fun (l, data) ->
      Asm.place asm l;
      Asm.ins_raw asm data)
    (List.rev entries)

(* The absolute addresses a template's own code reaches by a rel32 or
   RIP-relative displacement. The clean call's private stack is loaded
   with [movabs] and needs no reach; its pushes land on the scratch
   page, next to the slot named here. *)
let references = function
  | Lowfat_check_scratch scratch | Print { scratch; _ } -> [ scratch ]
  | Call { target; scratch; mode = Clean; _ } -> [ scratch; target ]
  | Call { target; mode = Naked; _ } -> [ target ]
  | Empty | Counter | Trap | Custom_pre _ | Replace _ -> []

let emit template ~at ~insn ~insn_addr ~insn_len =
  let asm = Asm.create ~base:at in
  let ret = insn_addr + insn_len in
  (match template with
  | Empty ->
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret
  | Counter ->
      Asm.ins asm (Insn.Int Hostcall.count);
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret
  | Lowfat_check_scratch scratch ->
      emit_lowfat_scratch asm ~insn ~scratch;
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret
  | Print { text; scratch } ->
      let str = emit_print asm ~scratch in
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret;
      place_data asm [ (str, text ^ "\x00") ]
  | Trap ->
      Asm.ins asm (Insn.Int Hostcall.trap);
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret
  | Call { target; mode; args; scratch; stack_top } ->
      let strings =
        emit_call asm ~target ~mode ~args ~scratch ~stack_top ~insn ~insn_addr
          ~insn_len
      in
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret;
      place_data asm strings
  | Custom_pre f ->
      f asm;
      if emit_displaced asm ~insn ~insn_addr ~insn_len then jmp_abs asm ret
  | Replace f -> f asm ~ret);
  Asm.assemble asm

let size template ~at ~insn ~insn_addr ~insn_len =
  Bytes.length (emit template ~at ~insn ~insn_addr ~insn_len)
