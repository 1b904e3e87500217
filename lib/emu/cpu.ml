module Space = E9_vm.Space
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Decode = E9_x86.Decode

type config = {
  far_jump_penalty : int;
  trap_penalty : int;
  fuel : int;
  abort_on_violation : bool;
}

let default_config =
  { far_jump_penalty = 3;
    trap_penalty = 3000;
    fuel = 200_000_000;
    abort_on_violation = true }

type allocator = {
  name : string;
  malloc : int -> int;
  free : int -> unit;
  check : int -> bool;
}

let bump_allocator space ~heap_base =
  let brk = ref heap_base in
  let malloc size =
    let size = max size 1 in
    (* 16-byte alignment, pages mapped on demand. *)
    let ptr = (!brk + 15) / 16 * 16 in
    brk := ptr + size;
    Space.map_zero space ~vaddr:ptr ~len:size ~prot:Elf_file.prot_rw;
    ptr
  in
  { name = "bump"; malloc; free = (fun _ -> ()); check = (fun _ -> true) }

type outcome =
  | Exited of int
  | Fault of int * string
  | Violation of int
  | Out_of_fuel

type result = {
  outcome : outcome;
  output : string;
  insns : int;
  cycles : int;
  far_jumps : int;
  traps : int;
  violations : int;
  sigtraps : int;
  prints : string list;  (** instrumentation log, in emission order *)
  counters : (int * int) list;
  last_rips : int list;  (** most recent instruction addresses, oldest first *)
  block_hits : int;
  block_misses : int;
  block_invalidations : int;
  blocks_cached : int;
}

(* A superblock: a straight-line run of decoded instructions starting at
   [entry] and ending at the first instruction that can transfer control
   (or at [max_block_len]). Executing one costs a single cache lookup and
   a single fuel check instead of one of each per instruction. *)
type block = { entry : int; code : Decode.decoded array }

type tracer = {
  on_retire : addr:int -> insn:Insn.t -> regs:int array -> unit;
  on_store : addr:int -> size:int -> value:int -> unit;
}

type state = {
  space : Space.t;
  regs : int array;
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;
  mutable pf : bool;
  mutable insns : int;
  mutable cycles : int;
  mutable far_jumps : int;
  mutable trap_count : int;
  mutable violations : int;
  mutable sigtraps : int;
  mutable prints : string list;  (* reversed *)
  output : Buffer.t;
  files : (int, bytes Lazy.t) Hashtbl.t;  (* open file descriptors (mmap source) *)
  ring : int array;  (* recent RIP trace for fault diagnostics *)
  bcache : (int, block) Hashtbl.t;
  (* Space.generation the block cache was filled under; a mismatch means
     executable memory changed and every cached decode is suspect. *)
  mutable cache_gen : int;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable block_invalidations : int;
  trap_table : (int, int) Hashtbl.t;
  counters : (int, int) Hashtbl.t;
  alloc : allocator;
  cfg : config;
  tracer : tracer option;
}

exception Stop of outcome

(* ------------------------------------------------------------------ *)
(* Register access                                                     *)
(* ------------------------------------------------------------------ *)

let get_reg st sz r =
  let v = st.regs.(Reg.index r) in
  match sz with
  | Insn.B -> v land 0xff
  | Insn.L -> v land 0xffff_ffff
  | Insn.Q -> v

let set_reg st sz r v =
  let i = Reg.index r in
  match sz with
  | Insn.B -> st.regs.(i) <- st.regs.(i) land lnot 0xff lor (v land 0xff)
  | Insn.L -> st.regs.(i) <- v land 0xffff_ffff (* 32-bit writes zero-extend *)
  | Insn.Q -> st.regs.(i) <- v

(* ------------------------------------------------------------------ *)
(* Memory operands                                                     *)
(* ------------------------------------------------------------------ *)

(* Effective address; [next_rip] is the address of the following
   instruction, the base for RIP-relative addressing. *)
let ea st (m : Insn.mem) ~next_rip =
  if m.rip_rel then next_rip + m.disp
  else
    let base = match m.base with Some r -> st.regs.(Reg.index r) | None -> 0 in
    let idx =
      match m.index with
      | Some (r, s) -> st.regs.(Reg.index r) * Insn.scale_factor s
      | None -> 0
    in
    base + idx + m.disp

let read_mem st sz addr =
  match sz with
  | Insn.B -> Space.read_u8 st.space addr
  | Insn.L -> Space.read_u32 st.space addr
  | Insn.Q -> Space.read_u64 st.space addr

let write_mem st sz addr v =
  (match sz with
  | Insn.B -> Space.write_u8 st.space addr v
  | Insn.L -> Space.write_u32 st.space addr v
  | Insn.Q -> Space.write_u64 st.space addr v);
  match st.tracer with
  | None -> ()
  | Some t -> (
      match sz with
      | Insn.B -> t.on_store ~addr ~size:1 ~value:(v land 0xff)
      | Insn.L -> t.on_store ~addr ~size:4 ~value:(v land 0xffff_ffff)
      | Insn.Q -> t.on_store ~addr ~size:8 ~value:v)

let read_operand st sz ~next_rip = function
  | Insn.Reg r -> get_reg st sz r
  | Insn.Imm v -> v
  | Insn.Mem m -> read_mem st sz (ea st m ~next_rip)

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let mask_of = function
  | Insn.B -> 0xff
  | Insn.L -> 0xffff_ffff
  | Insn.Q -> -1

let msb_of = function
  | Insn.B -> 0x80
  | Insn.L -> 0x8000_0000
  | Insn.Q -> min_int (* OCaml native sign bit stands in for bit 63 *)

let parity v =
  (* PF is set when the low byte has even population count. *)
  let v = v land 0xff in
  let v = v lxor (v lsr 4) in
  let v = v lxor (v lsr 2) in
  let v = v lxor (v lsr 1) in
  v land 1 = 0

let set_zsp st sz r =
  let m = mask_of sz in
  st.zf <- r land m = 0;
  st.sf <- r land msb_of sz <> 0;
  st.pf <- parity r

(* Unsigned comparison that is correct even when the native sign bit is
   standing in for bit 63. *)
let ult a b = if (a < 0) = (b < 0) then a < b else b < 0

let flags_logic st sz r =
  set_zsp st sz r;
  st.cf <- false;
  st.o_f <- false

let flags_add st sz a b r =
  let m = mask_of sz in
  set_zsp st sz r;
  (match sz with
  | Insn.Q -> st.cf <- ult r a
  | Insn.B | Insn.L -> st.cf <- r land m < a land m);
  st.o_f <- (a lxor lnot b) land (a lxor r) land msb_of sz <> 0

let flags_sub st sz a b r =
  let m = mask_of sz in
  set_zsp st sz r;
  (match sz with
  | Insn.Q -> st.cf <- ult a b
  | Insn.B | Insn.L -> st.cf <- a land m < b land m);
  st.o_f <- (a lxor b) land (a lxor r) land msb_of sz <> 0

let cond st = function
  | Insn.O -> st.o_f
  | Insn.NO -> not st.o_f
  | Insn.B_ -> st.cf
  | Insn.AE -> not st.cf
  | Insn.E -> st.zf
  | Insn.NE -> not st.zf
  | Insn.BE -> st.cf || st.zf
  | Insn.A -> not (st.cf || st.zf)
  | Insn.S_ -> st.sf
  | Insn.NS -> not st.sf
  | Insn.P -> st.pf
  | Insn.NP -> not st.pf
  | Insn.L_ -> st.sf <> st.o_f
  | Insn.GE -> st.sf = st.o_f
  | Insn.LE -> st.zf || st.sf <> st.o_f
  | Insn.G -> (not st.zf) && st.sf = st.o_f

(* ------------------------------------------------------------------ *)
(* Control transfer with the locality cost model                       *)
(* ------------------------------------------------------------------ *)

let goto st ~from target =
  if target lsr 12 <> from lsr 12 then begin
    st.cycles <- st.cycles + st.cfg.far_jump_penalty;
    st.far_jumps <- st.far_jumps + 1
  end;
  st.rip <- target

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)
(* ------------------------------------------------------------------ *)

let rsp = Reg.index Reg.RSP

let push st v =
  st.regs.(rsp) <- st.regs.(rsp) - 8;
  Space.write_u64 st.space st.regs.(rsp) v;
  match st.tracer with
  | None -> ()
  | Some t -> t.on_store ~addr:st.regs.(rsp) ~size:8 ~value:v

let pop st =
  let v = Space.read_u64 st.space st.regs.(rsp) in
  st.regs.(rsp) <- st.regs.(rsp) + 8;
  v

(* ------------------------------------------------------------------ *)
(* Host calls and syscalls                                             *)
(* ------------------------------------------------------------------ *)

let rdi = Reg.index Reg.RDI
let rsi = Reg.index Reg.RSI
let rdx = Reg.index Reg.RDX
let rax = Reg.index Reg.RAX

let read_cstring st addr =
  let buf = Buffer.create 32 in
  let rec go a =
    let c = Space.read_u8 st.space a in
    if c <> 0 && Buffer.length buf < 256 then begin
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let hostcall st ~site n =
  if n = Hostcall.malloc then st.regs.(rax) <- st.alloc.malloc st.regs.(rdi)
  else if n = Hostcall.free then st.alloc.free st.regs.(rdi)
  else if n = Hostcall.count then
    Hashtbl.replace st.counters site
      (1 + Option.value ~default:0 (Hashtbl.find_opt st.counters site))
  else if n = Hostcall.check then begin
    if not (st.alloc.check st.regs.(rdi)) then begin
      st.violations <- st.violations + 1;
      if st.cfg.abort_on_violation then raise (Stop (Violation st.regs.(rdi)))
    end
  end
  else if n = Hostcall.print then
    (* Instrumentation log, not guest output: the trace oracle compares
       the output stream, and print trampolines must not perturb it. *)
    st.prints <- read_cstring st st.regs.(rdi) :: st.prints
  else if n = Hostcall.trap then st.sigtraps <- st.sigtraps + 1
  else raise (Stop (Fault (site, Printf.sprintf "unknown hostcall 0x%x" n)))

(* The path the injected E9Patch loader stub opens to mmap its own file. *)
let self_exe_path = "/proc/self/exe"
let self_exe_fd = 3

let mmap_prot bits : Elf_file.prot =
  { r = bits land 1 <> 0; w = bits land 2 <> 0; x = bits land 4 <> 0 }

let syscall st =
  let r10 = Reg.index Reg.R10 and r8 = Reg.index Reg.R8 and r9 = Reg.index Reg.R9 in
  match st.regs.(rax) with
  | 1 ->
      (* write(fd, buf, len) — fd ignored, all output is one stream *)
      let buf = Space.read_bytes st.space st.regs.(rsi) st.regs.(rdx) in
      Buffer.add_bytes st.output buf;
      st.regs.(rax) <- st.regs.(rdx)
  | 3 -> st.regs.(rax) <- 0 (* close *)
  | 9 ->
      (* mmap(addr, len, prot, flags, fd, off) — MAP_FIXED only, either
         anonymous or file-backed from an open descriptor. This is what the
         integrated loader stub calls. *)
      let addr = st.regs.(rdi)
      and len = st.regs.(rsi)
      and prot = mmap_prot st.regs.(rdx)
      and flags = st.regs.(r10)
      and fd = st.regs.(r8)
      and off = st.regs.(r9) in
      if flags land 0x10 = 0 then
        raise (Stop (Fault (st.rip, "mmap without MAP_FIXED unsupported")))
      else if flags land 0x20 <> 0 then begin
        Space.map_zero st.space ~vaddr:addr ~len ~prot;
        st.regs.(rax) <- addr
      end
      else begin
        match Hashtbl.find_opt st.files fd with
        | None -> st.regs.(rax) <- -9 (* EBADF *)
        | Some lazy_bytes ->
            let bytes = Lazy.force lazy_bytes in
            if off < 0 || off + len > Bytes.length bytes then
              raise (Stop (Fault (st.rip, "mmap beyond end of file")))
            else begin
              Space.map_sub st.space ~vaddr:addr ~prot bytes ~src_off:off ~len;
              st.regs.(rax) <- addr
            end
      end
  | 60 -> raise (Stop (Exited (st.regs.(rdi) land 0xff)))
  | 257 ->
      (* openat(dirfd, path, flags) — only the loader's self-open. *)
      let path = read_cstring st st.regs.(rsi) in
      if String.equal path self_exe_path && Hashtbl.mem st.files self_exe_fd
      then st.regs.(rax) <- self_exe_fd
      else st.regs.(rax) <- -2 (* ENOENT *)
  | n -> raise (Stop (Fault (st.rip, Printf.sprintf "unsupported syscall %d" n)))

(* ------------------------------------------------------------------ *)
(* Instruction dispatch                                                *)
(* ------------------------------------------------------------------ *)

let exec st (d : Decode.decoded) =
  let here = st.rip in
  let next_rip = here + d.len in
  st.rip <- next_rip;
  match d.insn with
  | Insn.Nop _ | Insn.Endbr64 -> ()
  | Insn.Mov (sz, dst, src) -> (
      let v = read_operand st sz ~next_rip src in
      match dst with
      | Insn.Reg r -> set_reg st sz r v
      | Insn.Mem m -> write_mem st sz (ea st m ~next_rip) v
      | Insn.Imm _ -> raise (Stop (Fault (here, "mov to immediate"))))
  | Insn.Movabs (r, v) -> st.regs.(Reg.index r) <- Int64.to_int v
  | Insn.Lea (r, m) -> st.regs.(Reg.index r) <- ea st m ~next_rip
  | Insn.Alu (op, sz, dst, src) -> (
      let a = read_operand st sz ~next_rip dst in
      let b = read_operand st sz ~next_rip src in
      let m = mask_of sz in
      let store r =
        match dst with
        | Insn.Reg reg -> set_reg st sz reg r
        | Insn.Mem mem -> write_mem st sz (ea st mem ~next_rip) r
        | Insn.Imm _ -> raise (Stop (Fault (here, "ALU to immediate")))
      in
      match op with
      | Insn.Add ->
          let r = (a + b) land m in
          flags_add st sz a b r;
          store r
      | Insn.Adc ->
          let carry = if st.cf then 1 else 0 in
          let r = (a + b + carry) land m in
          set_zsp st sz r;
          (match sz with
          | Insn.Q ->
              (* carry out of a+b, or the +1 wrapping an all-ones sum *)
              let s1 = a + b in
              st.cf <- ult s1 a || (carry = 1 && s1 = -1)
          | Insn.B | Insn.L ->
              st.cf <- (a land m) + (b land m) + carry > m);
          let msb = msb_of sz in
          let sa = a land msb <> 0 and sb = b land msb <> 0 in
          let sr = r land msb <> 0 in
          st.o_f <- sa = sb && sr <> sa;
          store r
      | Insn.Sbb ->
          let borrow = if st.cf then 1 else 0 in
          let r = (a - b - borrow) land m in
          set_zsp st sz r;
          (match sz with
          | Insn.Q -> st.cf <- ult a b || (borrow = 1 && a - b = 0)
          | Insn.B | Insn.L -> st.cf <- a land m < (b land m) + borrow);
          let msb = msb_of sz in
          let sa = a land msb <> 0 and sb = b land msb <> 0 in
          let sr = r land msb <> 0 in
          st.o_f <- sa <> sb && sr <> sa;
          store r
      | Insn.Sub ->
          let r = (a - b) land m in
          flags_sub st sz a b r;
          store r
      | Insn.Cmp ->
          let r = (a - b) land m in
          flags_sub st sz a b r
      | Insn.And ->
          let r = a land b land m in
          flags_logic st sz r;
          store r
      | Insn.Or ->
          let r = (a lor b) land m in
          flags_logic st sz r;
          store r
      | Insn.Xor ->
          let r = (a lxor b) land m in
          flags_logic st sz r;
          store r
      | Insn.Test ->
          let r = a land b land m in
          flags_logic st sz r)
  | Insn.Imul (r, src) ->
      let a = get_reg st Insn.Q r in
      let b = read_operand st Insn.Q ~next_rip src in
      let v = a * b in
      set_reg st Insn.Q r v;
      set_zsp st Insn.Q v;
      st.cf <- false;
      st.o_f <- false
  | Insn.Movzx (r, src) ->
      set_reg st Insn.Q r (read_operand st Insn.B ~next_rip src land 0xff)
  | Insn.Movsx (r, src) ->
      let v = read_operand st Insn.B ~next_rip src land 0xff in
      set_reg st Insn.Q r (if v land 0x80 <> 0 then v - 0x100 else v)
  | Insn.Setcc (c, dst) -> (
      let v = if cond st c then 1 else 0 in
      match dst with
      | Insn.Reg r -> set_reg st Insn.B r v
      | Insn.Mem m -> write_mem st Insn.B (ea st m ~next_rip) v
      | Insn.Imm _ -> raise (Stop (Fault (here, "setcc to immediate"))))
  | Insn.Cmov (c, r, src) ->
      (* The source is read unconditionally, as on hardware. *)
      let v = read_operand st Insn.Q ~next_rip src in
      if cond st c then set_reg st Insn.Q r v
  | Insn.Neg (sz, dst) -> (
      let a = read_operand st sz ~next_rip dst in
      let m = mask_of sz in
      let r = -a land m in
      flags_sub st sz 0 a r;
      match dst with
      | Insn.Reg reg -> set_reg st sz reg r
      | Insn.Mem mem -> write_mem st sz (ea st mem ~next_rip) r
      | Insn.Imm _ -> raise (Stop (Fault (here, "neg of immediate"))))
  | Insn.Not (sz, dst) -> (
      (* not does not affect flags *)
      let a = read_operand st sz ~next_rip dst in
      let r = lnot a land mask_of sz in
      match dst with
      | Insn.Reg reg -> set_reg st sz reg r
      | Insn.Mem mem -> write_mem st sz (ea st mem ~next_rip) r
      | Insn.Imm _ -> raise (Stop (Fault (here, "not of immediate"))))
  | Insn.Inc (sz, dst) | Insn.Dec (sz, dst) -> (
      (* inc/dec: add/sub 1 with CF preserved *)
      let a = read_operand st sz ~next_rip dst in
      let m = mask_of sz in
      let saved_cf = st.cf in
      let r =
        match d.insn with
        | Insn.Inc _ ->
            let r = (a + 1) land m in
            flags_add st sz a 1 r;
            r
        | _ ->
            let r = (a - 1) land m in
            flags_sub st sz a 1 r;
            r
      in
      st.cf <- saved_cf;
      match dst with
      | Insn.Reg reg -> set_reg st sz reg r
      | Insn.Mem mem -> write_mem st sz (ea st mem ~next_rip) r
      | Insn.Imm _ -> raise (Stop (Fault (here, "inc/dec of immediate"))))
  | Insn.Shift (sh, sz, dst, n) ->
      let a = read_operand st sz ~next_rip dst in
      let m = mask_of sz in
      let n = n land (match sz with Insn.Q -> 63 | Insn.B | Insn.L -> 31) in
      let r =
        match sh with
        | Insn.Shl -> (a lsl n) land m
        | Insn.Shr -> (a land m) lsr n
        | Insn.Sar -> (
            (* Arithmetic shift on the masked value's sign. *)
            match sz with
            | Insn.Q -> a asr n
            | Insn.B | Insn.L ->
                let signed =
                  if a land msb_of sz <> 0 then a land m - (m + 1) else a land m
                in
                signed asr n land m)
      in
      if n <> 0 then begin
        set_zsp st sz r;
        (match sh with
        | Insn.Shl -> st.cf <- (a lsl n) land m land msb_of sz <> 0 && n = 1
        | Insn.Shr | Insn.Sar -> st.cf <- (a land m) lsr (n - 1) land 1 = 1);
        st.o_f <- false
      end;
      (match dst with
      | Insn.Reg reg -> set_reg st sz reg r
      | Insn.Mem mem -> write_mem st sz (ea st mem ~next_rip) r
      | Insn.Imm _ -> raise (Stop (Fault (here, "shift of immediate"))))
  | Insn.Push r -> push st st.regs.(Reg.index r)
  | Insn.Pop r -> st.regs.(Reg.index r) <- pop st
  | Insn.Pushfq ->
      (* x86 RFLAGS bit layout: CF=0, PF=2, ZF=6, SF=7, OF=11; bit 1 is
         always set. *)
      let v =
        0x2
        lor (if st.cf then 1 else 0)
        lor (if st.pf then 4 else 0)
        lor (if st.zf then 0x40 else 0)
        lor (if st.sf then 0x80 else 0)
        lor if st.o_f then 0x800 else 0
      in
      push st v
  | Insn.Popfq ->
      let v = pop st in
      st.cf <- v land 1 <> 0;
      st.pf <- v land 4 <> 0;
      st.zf <- v land 0x40 <> 0;
      st.sf <- v land 0x80 <> 0;
      st.o_f <- v land 0x800 <> 0
  | Insn.Call rel ->
      push st next_rip;
      goto st ~from:here (next_rip + rel)
  | Insn.Call_ind op ->
      let target = read_operand st Insn.Q ~next_rip op in
      push st next_rip;
      goto st ~from:here target
  | Insn.Ret ->
      let target = pop st in
      goto st ~from:here target
  | Insn.Jmp rel | Insn.Jmp_short rel -> goto st ~from:here (next_rip + rel)
  | Insn.Jmp_ind op -> goto st ~from:here (read_operand st Insn.Q ~next_rip op)
  | Insn.Jcc (c, rel) | Insn.Jcc_short (c, rel) ->
      if cond st c then goto st ~from:here (next_rip + rel)
  | Insn.Int3 -> (
      (* B0: the SIGTRAP handler redirects to the patch trampoline. *)
      match Hashtbl.find_opt st.trap_table here with
      | Some trampoline ->
          st.cycles <- st.cycles + st.cfg.trap_penalty;
          st.trap_count <- st.trap_count + 1;
          goto st ~from:here trampoline
      | None -> raise (Stop (Fault (here, "int3 with no trap-table entry"))))
  | Insn.Int n ->
      if Hostcall.is_hostcall n then hostcall st ~site:here n
      else raise (Stop (Fault (here, Printf.sprintf "int 0x%x" n)))
  | Insn.Syscall -> syscall st
  | Insn.Ud2 -> raise (Stop (Fault (here, "ud2")))
  | Insn.Unknown b ->
      raise (Stop (Fault (here, Printf.sprintf "undecodable byte 0x%02x" b)))

(* ------------------------------------------------------------------ *)
(* The decoded-code cache and its invalidation                         *)
(* ------------------------------------------------------------------ *)

(* The superblock cache is valid only while [Space.generation] is
   unchanged: a guest write to an executable page, or a syscall that
   remaps one, must flush it or stale code would run silently. The check
   is one load and compare. *)
let check_code_gen st =
  let g = Space.generation st.space in
  if g <> st.cache_gen then begin
    Hashtbl.reset st.bcache;
    st.cache_gen <- g;
    st.block_invalidations <- st.block_invalidations + 1
  end

(* Instructions that may set RIP to anything other than the next address
   terminate a superblock. [Int] hostcalls and [Syscall] fall through
   sequentially, so they stay inside blocks (a syscall that remaps
   executable memory is caught by the generation check after each step). *)
let terminates (d : Decode.decoded) =
  match d.insn with
  | Insn.Call _ | Insn.Call_ind _ | Insn.Ret
  | Insn.Jmp _ | Insn.Jmp_short _ | Insn.Jmp_ind _
  | Insn.Jcc _ | Insn.Jcc_short _
  | Insn.Int3 | Insn.Ud2 | Insn.Unknown _ -> true
  | _ -> false

let max_block_len = 128

let build_block st entry =
  let buf = ref [] in
  let n = ref 0 in
  let a = ref entry in
  let stop = ref false in
  while not !stop do
    (* A fetch fault on the first instruction is the guest's own fault and
       propagates. A fault on a lookahead fetch only truncates the block:
       the guest may never fall through this far (an exit syscall, say),
       and if it does, re-entering the block cache at the bad address
       raises the fault with the correct RIP. *)
    match
      if !n = 0 then Some (Space.fetch_window st.space !a)
      else
        (try Some (Space.fetch_window st.space !a)
         with Space.Fault _ -> None)
    with
    | None -> stop := true
    | Some window ->
        let d = Decode.decode window 0 in
        buf := d :: !buf;
        incr n;
        a := !a + d.Decode.len;
        if terminates d || !n >= max_block_len then stop := true
  done;
  { entry; code = Array.of_list (List.rev !buf) }

let block_at st addr =
  match Hashtbl.find_opt st.bcache addr with
  | Some b ->
      st.block_hits <- st.block_hits + 1;
      b
  | None ->
      let b = build_block st addr in
      st.block_misses <- st.block_misses + 1;
      Hashtbl.replace st.bcache addr b;
      b

(* Execute a whole superblock. The fuel check happened at block entry; per
   instruction only the counters, the RIP ring and the generation check
   remain. A mid-block write to executable memory (self-modifying code)
   aborts the block after the writing instruction: the rest of the decoded
   array may be stale, so control returns to the outer loop, which re-decodes
   from the (already correct) RIP. *)
let exec_block st b =
  let n = Array.length b.code in
  let i = ref 0 in
  while !i < n do
    let d = Array.unsafe_get b.code !i in
    st.ring.(st.insns land 31) <- st.rip;
    st.insns <- st.insns + 1;
    st.cycles <- st.cycles + 1;
    (match st.tracer with
    | None -> ()
    | Some t -> t.on_retire ~addr:st.rip ~insn:d.Decode.insn ~regs:st.regs);
    exec st d;
    if Space.generation st.space <> st.cache_gen then begin
      check_code_gen st;
      i := n
    end
    else incr i
  done

let run ?(config = default_config) ?(files = []) ?tracer space ~entry
    ~stack_top ~traps ~allocator =
  let file_table = Hashtbl.create 4 in
  List.iter (fun (fd, bytes) -> Hashtbl.replace file_table fd bytes) files;
  let st =
    { space;
      regs = Array.make 16 0;
      rip = entry;
      zf = false;
      sf = false;
      cf = false;
      o_f = false;
      pf = false;
      insns = 0;
      cycles = 0;
      far_jumps = 0;
      trap_count = 0;
      violations = 0;
      sigtraps = 0;
      prints = [];
      output = Buffer.create 256;
      files = file_table;
      ring = Array.make 32 (-1);
      bcache = Hashtbl.create 1024;
      cache_gen = Space.generation space;
      block_hits = 0;
      block_misses = 0;
      block_invalidations = 0;
      trap_table = traps;
      counters = Hashtbl.create 64;
      alloc = allocator;
      cfg = config;
      tracer }
  in
  st.regs.(rsp) <- stack_top;
  let outcome =
    try
      while st.insns < config.fuel do
        check_code_gen st;
        let b = block_at st st.rip in
        if st.insns + Array.length b.code <= config.fuel then exec_block st b
        else begin
          (* Not enough fuel for the whole block: single-step its first
             instruction so that fuel exhaustion lands on the exact
             instruction count. *)
          let d = b.code.(0) in
          st.ring.(st.insns land 31) <- st.rip;
          st.insns <- st.insns + 1;
          st.cycles <- st.cycles + 1;
          (match st.tracer with
          | None -> ()
          | Some t ->
              t.on_retire ~addr:st.rip ~insn:d.Decode.insn ~regs:st.regs);
          exec st d
        end
      done;
      Out_of_fuel
    with
    | Stop o -> o
    | Space.Fault (addr, msg) -> Fault (addr, msg)
  in
  { outcome;
    output = Buffer.contents st.output;
    insns = st.insns;
    cycles = st.cycles;
    far_jumps = st.far_jumps;
    traps = st.trap_count;
    violations = st.violations;
    sigtraps = st.sigtraps;
    prints = List.rev st.prints;
    counters =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.counters []);
    last_rips =
      (let n = min st.insns 32 in
       List.init n (fun i -> st.ring.((st.insns - n + i) land 31)));
    block_hits = st.block_hits;
    block_misses = st.block_misses;
    block_invalidations = st.block_invalidations;
    blocks_cached = Hashtbl.length st.bcache }
