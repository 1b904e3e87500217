module Space = E9_vm.Space
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Decode = E9_x86.Decode
module Itbl = E9_bits.Itbl

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

type watch = { retire : bool; stores : bool }

type tracer = {
  watch : addr:int -> insn:Insn.t -> watch;
  on_retire : addr:int -> regs:int array -> unit;
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
  bcache : block Itbl.t;
  (* Space.generation the block cache was filled under; a mismatch means
     executable memory changed and every cached decode is suspect. *)
  mutable cache_gen : int;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable block_invalidations : int;
  trap_table : (int, int) Hashtbl.t;
  (* One cell per [count] site, made when the site is lowered; a site
     that never ran stays at 0 and is not reported. *)
  counters : int ref Itbl.t;
  alloc : allocator;
  cfg : config;
  tracer : tracer option;
}

(* A lowered instruction: its semantics as one closure, specialised when
   its block is built to its address, operand forms and size, so a retire
   runs no decode and no dispatch on the instruction. [retire] is the
   tracer's boundary bit for [addr]. *)
and op = { addr : int; next : int; exec : state -> unit; retire : bool }

(* A superblock: a straight-line run of lowered instructions ending at the
   first instruction that can transfer control (or at [max_block_len]).
   Executing one costs a single cache lookup and a single fuel check
   instead of one of each per instruction. *)
and block = op array

exception Stop of outcome

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

let cond_fn : Insn.cc -> state -> bool = function
  | Insn.O -> fun st -> st.o_f
  | Insn.NO -> fun st -> not st.o_f
  | Insn.B_ -> fun st -> st.cf
  | Insn.AE -> fun st -> not st.cf
  | Insn.E -> fun st -> st.zf
  | Insn.NE -> fun st -> not st.zf
  | Insn.BE -> fun st -> st.cf || st.zf
  | Insn.A -> fun st -> not (st.cf || st.zf)
  | Insn.S_ -> fun st -> st.sf
  | Insn.NS -> fun st -> not st.sf
  | Insn.P -> fun st -> st.pf
  | Insn.NP -> fun st -> not st.pf
  | Insn.L_ -> fun st -> st.sf <> st.o_f
  | Insn.GE -> fun st -> st.sf = st.o_f
  | Insn.LE -> fun st -> st.zf || st.sf <> st.o_f
  | Insn.G -> fun st -> (not st.zf) && st.sf = st.o_f

(* The two-operand ALU operations that store a result: old value [a],
   source [b], result masked to the width, flags set as a side effect. *)
let alu_fn op sz : state -> int -> int -> int =
  let m = mask_of sz and msb = msb_of sz in
  match op with
  | Insn.Add ->
      fun st a b ->
        let r = (a + b) land m in
        flags_add st sz a b r;
        r
  | Insn.Adc ->
      fun st a b ->
        let carry = if st.cf then 1 else 0 in
        let r = (a + b + carry) land m in
        set_zsp st sz r;
        (match sz with
        | Insn.Q ->
            (* carry out of a+b, or the +1 wrapping an all-ones sum *)
            let s1 = a + b in
            st.cf <- ult s1 a || (carry = 1 && s1 = -1)
        | Insn.B | Insn.L -> st.cf <- (a land m) + (b land m) + carry > m);
        let sa = a land msb <> 0 and sb = b land msb <> 0 in
        let sr = r land msb <> 0 in
        st.o_f <- sa = sb && sr <> sa;
        r
  | Insn.Sbb ->
      fun st a b ->
        let borrow = if st.cf then 1 else 0 in
        let r = (a - b - borrow) land m in
        set_zsp st sz r;
        (match sz with
        | Insn.Q -> st.cf <- ult a b || (borrow = 1 && a - b = 0)
        | Insn.B | Insn.L -> st.cf <- a land m < (b land m) + borrow);
        let sa = a land msb <> 0 and sb = b land msb <> 0 in
        let sr = r land msb <> 0 in
        st.o_f <- sa <> sb && sr <> sa;
        r
  | Insn.Sub | Insn.Cmp ->
      fun st a b ->
        let r = (a - b) land m in
        flags_sub st sz a b r;
        r
  | Insn.And | Insn.Test ->
      fun st a b ->
        let r = a land b land m in
        flags_logic st sz r;
        r
  | Insn.Or ->
      fun st a b ->
        let r = (a lor b) land m in
        flags_logic st sz r;
        r
  | Insn.Xor ->
      fun st a b ->
        let r = (a lxor b) land m in
        flags_logic st sz r;
        r

(* ------------------------------------------------------------------ *)
(* Operands, lowered                                                   *)
(* ------------------------------------------------------------------ *)

(* A register read at a width: the low byte, the low 32 bits, or all. *)
let reg_get sz r : state -> int =
  let i = Reg.index r in
  match sz with
  | Insn.B -> fun st -> Array.unsafe_get st.regs i land 0xff
  | Insn.L -> fun st -> Array.unsafe_get st.regs i land 0xffff_ffff
  | Insn.Q -> fun st -> Array.unsafe_get st.regs i

(* A register write at a width: a byte write keeps the other bytes, a
   32-bit write zero-extends. *)
let reg_set sz r : state -> int -> unit =
  let i = Reg.index r in
  match sz with
  | Insn.B ->
      fun st v ->
        Array.unsafe_set st.regs i
          (Array.unsafe_get st.regs i land lnot 0xff lor (v land 0xff))
  | Insn.L -> fun st v -> Array.unsafe_set st.regs i (v land 0xffff_ffff)
  | Insn.Q -> fun st v -> Array.unsafe_set st.regs i v

(* The effective address; a RIP-relative one is a constant, [next_rip]
   being the base. *)
let ea ~next_rip (m : Insn.mem) : state -> int =
  let d = m.disp in
  if m.rip_rel then
    let a = next_rip + d in
    fun _ -> a
  else
    match (m.base, m.index) with
    | Some b, None ->
        let b = Reg.index b in
        fun st -> Array.unsafe_get st.regs b + d
    | Some b, Some (x, s) ->
        let b = Reg.index b and x = Reg.index x and f = Insn.scale_factor s in
        fun st ->
          Array.unsafe_get st.regs b + (Array.unsafe_get st.regs x * f) + d
    | None, Some (x, s) ->
        let x = Reg.index x and f = Insn.scale_factor s in
        fun st -> (Array.unsafe_get st.regs x * f) + d
    | None, None -> fun _ -> d

let mem_get sz : state -> int -> int =
  match sz with
  | Insn.B -> fun st a -> Space.read_u8 st.space a
  | Insn.L -> fun st a -> Space.read_u32 st.space a
  | Insn.Q -> fun st a -> Space.read_u64 st.space a

(* A data write, then, when the tracer watches this instruction's
   stores, its event with the value truncated to the written width. *)
let mem_set sz (report : tracer option) : state -> int -> int -> unit =
  match (sz, report) with
  | Insn.B, None -> fun st a v -> Space.write_u8 st.space a v
  | Insn.L, None -> fun st a v -> Space.write_u32 st.space a v
  | Insn.Q, None -> fun st a v -> Space.write_u64 st.space a v
  | Insn.B, Some t ->
      fun st a v ->
        Space.write_u8 st.space a v;
        t.on_store ~addr:a ~size:1 ~value:(v land 0xff)
  | Insn.L, Some t ->
      fun st a v ->
        Space.write_u32 st.space a v;
        t.on_store ~addr:a ~size:4 ~value:(v land 0xffff_ffff)
  | Insn.Q, Some t ->
      fun st a v ->
        Space.write_u64 st.space a v;
        t.on_store ~addr:a ~size:8 ~value:v

let operand_get ~next_rip sz : Insn.operand -> state -> int = function
  | Insn.Reg r -> reg_get sz r
  | Insn.Imm v -> fun _ -> v
  | Insn.Mem m ->
      let e = ea ~next_rip m and get = mem_get sz in
      fun st -> get st (e st)

let fault_at here msg = raise (Stop (Fault (here, msg)))

let operand_set ~next_rip ~here ~what sz report :
    Insn.operand -> state -> int -> unit = function
  | Insn.Reg r -> reg_set sz r
  | Insn.Mem m ->
      let e = ea ~next_rip m and set = mem_set sz report in
      fun st v -> set st (e st) v
  | Insn.Imm _ -> fun _ _ -> fault_at here what

(* Read-modify-write of [dst]: [f st a] is the result (flags set) from the
   old value [a]; a memory operand's address is computed once. *)
let modify ~next_rip ~here ~what sz report dst (f : state -> int -> int) :
    state -> unit =
  match dst with
  | Insn.Reg r ->
      let get = reg_get sz r and set = reg_set sz r in
      fun st -> set st (f st (get st))
  | Insn.Mem m ->
      let e = ea ~next_rip m and get = mem_get sz and set = mem_set sz report in
      fun st ->
        let a = e st in
        set st a (f st (get st a))
  | Insn.Imm v ->
      fun st ->
        ignore (f st v);
        fault_at here what

(* ------------------------------------------------------------------ *)
(* Control transfer with the locality cost model                       *)
(* ------------------------------------------------------------------ *)

let goto st ~from target =
  if target lsr 12 <> from lsr 12 then begin
    st.cycles <- st.cycles + st.cfg.far_jump_penalty;
    st.far_jumps <- st.far_jumps + 1
  end;
  st.rip <- target

(* A transfer to a constant target: whether it crosses a page is known
   when it is lowered. *)
let goto_const ~from target : state -> unit =
  if target lsr 12 <> from lsr 12 then fun st -> goto st ~from target
  else fun st -> st.rip <- target

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)
(* ------------------------------------------------------------------ *)

let rsp = Reg.index Reg.RSP

let push_fn (report : tracer option) : state -> int -> unit =
  match report with
  | None ->
      fun st v ->
        st.regs.(rsp) <- st.regs.(rsp) - 8;
        Space.write_u64 st.space st.regs.(rsp) v
  | Some t ->
      fun st v ->
        st.regs.(rsp) <- st.regs.(rsp) - 8;
        Space.write_u64 st.space st.regs.(rsp) v;
        t.on_store ~addr:st.regs.(rsp) ~size:8 ~value:v

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

(* The longest C string a host call reads. *)
let cstring_max = 256

(* A host call lowered at [site]; [count] gets the site's cell in
   [counters] now, so a retire increments it without a table lookup. *)
let hostcall ~counters ~site n : state -> unit =
  if n = Hostcall.malloc then (fun st ->
    st.regs.(rax) <- st.alloc.malloc st.regs.(rdi))
  else if n = Hostcall.free then (fun st -> st.alloc.free st.regs.(rdi))
  else if n = Hostcall.count then begin
    let cell =
      match Itbl.find_opt counters site with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Itbl.replace counters site c;
          c
    in
    fun _ -> incr cell
  end
  else if n = Hostcall.check then (fun st ->
    if not (st.alloc.check st.regs.(rdi)) then begin
      st.violations <- st.violations + 1;
      if st.cfg.abort_on_violation then raise (Stop (Violation st.regs.(rdi)))
    end)
  else if n = Hostcall.print then (fun st ->
    (* Instrumentation log, not guest output: the trace oracle compares
       the output stream, and print trampolines must not perturb it. *)
    st.prints <-
      Space.read_cstring st.space st.regs.(rdi) ~max:cstring_max :: st.prints)
  else if n = Hostcall.trap then (fun st -> st.sigtraps <- st.sigtraps + 1)
  else fun _ -> fault_at site (Printf.sprintf "unknown hostcall 0x%x" n)

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
      let path = Space.read_cstring st.space st.regs.(rsi) ~max:cstring_max in
      if String.equal path self_exe_path && Hashtbl.mem st.files self_exe_fd
      then st.regs.(rax) <- self_exe_fd
      else st.regs.(rax) <- -2 (* ENOENT *)
  | n -> raise (Stop (Fault (st.rip, Printf.sprintf "unsupported syscall %d" n)))

(* ------------------------------------------------------------------ *)
(* Lowering: the one definition of every instruction's semantics       *)
(* ------------------------------------------------------------------ *)

let pushfq st =
  (* x86 RFLAGS bit layout: CF=0, PF=2, ZF=6, SF=7, OF=11; bit 1 is
     always set. *)
  0x2
  lor (if st.cf then 1 else 0)
  lor (if st.pf then 4 else 0)
  lor (if st.zf then 0x40 else 0)
  lor (if st.sf then 0x80 else 0)
  lor if st.o_f then 0x800 else 0

let popfq st v =
  st.cf <- v land 1 <> 0;
  st.pf <- v land 4 <> 0;
  st.zf <- v land 0x40 <> 0;
  st.sf <- v land 0x80 <> 0;
  st.o_f <- v land 0x800 <> 0

(* [lower st ~here insn ~next_rip] is [insn]'s semantics at address [here]:
   RIP is already [next_rip] when it runs (the block loop sets it), a
   transfer overwrites it. [report] is the tracer when it watches this
   instruction's stores. *)
let lower st ~here ~next_rip ~report (insn : Insn.t) : state -> unit =
  let get sz op = operand_get ~next_rip sz op in
  let set ~what sz op = operand_set ~next_rip ~here ~what sz report op in
  let modify ~what sz dst f = modify ~next_rip ~here ~what sz report dst f in
  let push = push_fn report in
  match insn with
  | Insn.Nop _ | Insn.Endbr64 -> fun _ -> ()
  | Insn.Mov (sz, Insn.Reg r, Insn.Reg s) ->
      let g = reg_get sz s and p = reg_set sz r in
      fun st -> p st (g st)
  | Insn.Mov (Insn.Q, Insn.Reg r, Insn.Imm v) ->
      let i = Reg.index r in
      fun st -> Array.unsafe_set st.regs i v
  | Insn.Mov (Insn.Q, Insn.Reg r, Insn.Mem m) ->
      let i = Reg.index r and e = ea ~next_rip m in
      fun st -> Array.unsafe_set st.regs i (Space.read_u64 st.space (e st))
  | Insn.Mov (Insn.Q, Insn.Mem m, Insn.Reg r) when Option.is_none report ->
      let i = Reg.index r and e = ea ~next_rip m in
      fun st -> Space.write_u64 st.space (e st) (Array.unsafe_get st.regs i)
  | Insn.Mov (sz, dst, src) ->
      let g = get sz src and p = set ~what:"mov to immediate" sz dst in
      fun st -> p st (g st)
  | Insn.Movabs (r, v) ->
      let i = Reg.index r and v = Int64.to_int v in
      fun st -> Array.unsafe_set st.regs i v
  | Insn.Lea (r, m) ->
      let i = Reg.index r and e = ea ~next_rip m in
      fun st -> Array.unsafe_set st.regs i (e st)
  | Insn.Alu ((Insn.Cmp | Insn.Test) as op, sz, dst, src) ->
      (* Flags only: nothing is stored, not even to an immediate. *)
      let f = alu_fn op sz in
      (match (dst, src) with
      | Insn.Reg r, Insn.Imm v ->
          let a = reg_get sz r in
          fun st -> ignore (f st (a st) v)
      | _ ->
          let a = get sz dst and b = get sz src in
          fun st ->
            let x = a st in
            ignore (f st x (b st)))
  | Insn.Alu (op, sz, dst, src) -> (
      let f = alu_fn op sz in
      match (sz, dst, src) with
      | Insn.Q, Insn.Reg r, Insn.Reg s ->
          let i = Reg.index r and j = Reg.index s in
          fun st ->
            Array.unsafe_set st.regs i
              (f st (Array.unsafe_get st.regs i) (Array.unsafe_get st.regs j))
      | Insn.Q, Insn.Reg r, Insn.Imm v ->
          let i = Reg.index r in
          fun st -> Array.unsafe_set st.regs i (f st (Array.unsafe_get st.regs i) v)
      | _ ->
          let b = get sz src in
          modify ~what:"ALU to immediate" sz dst (fun st a -> f st a (b st)))
  | Insn.Imul (r, src) ->
      let i = Reg.index r and b = get Insn.Q src in
      fun st ->
        let v = Array.unsafe_get st.regs i * b st in
        Array.unsafe_set st.regs i v;
        set_zsp st Insn.Q v;
        st.cf <- false;
        st.o_f <- false
  | Insn.Movzx (r, src) ->
      let i = Reg.index r and b = get Insn.B src in
      fun st -> Array.unsafe_set st.regs i (b st land 0xff)
  | Insn.Movsx (r, src) ->
      let i = Reg.index r and b = get Insn.B src in
      fun st ->
        let v = b st land 0xff in
        Array.unsafe_set st.regs i (if v land 0x80 <> 0 then v - 0x100 else v)
  | Insn.Setcc (c, dst) ->
      let test = cond_fn c and p = set ~what:"setcc to immediate" Insn.B dst in
      fun st -> p st (if test st then 1 else 0)
  | Insn.Cmov (c, r, src) ->
      (* The source is read unconditionally, as on hardware. *)
      let test = cond_fn c and i = Reg.index r and b = get Insn.Q src in
      fun st ->
        let v = b st in
        if test st then Array.unsafe_set st.regs i v
  | Insn.Neg (sz, dst) ->
      let m = mask_of sz in
      modify ~what:"neg of immediate" sz dst (fun st a ->
          let r = -a land m in
          flags_sub st sz 0 a r;
          r)
  | Insn.Not (sz, dst) ->
      (* not does not affect flags *)
      let m = mask_of sz in
      modify ~what:"not of immediate" sz dst (fun _ a -> lnot a land m)
  | Insn.Inc (sz, dst) ->
      (* inc/dec: add/sub 1 with CF preserved *)
      let m = mask_of sz in
      modify ~what:"inc/dec of immediate" sz dst (fun st a ->
          let saved_cf = st.cf in
          let r = (a + 1) land m in
          flags_add st sz a 1 r;
          st.cf <- saved_cf;
          r)
  | Insn.Dec (sz, dst) ->
      let m = mask_of sz in
      modify ~what:"inc/dec of immediate" sz dst (fun st a ->
          let saved_cf = st.cf in
          let r = (a - 1) land m in
          flags_sub st sz a 1 r;
          st.cf <- saved_cf;
          r)
  | Insn.Shift (sh, sz, dst, n) ->
      let m = mask_of sz and msb = msb_of sz in
      let n = n land (match sz with Insn.Q -> 63 | Insn.B | Insn.L -> 31) in
      let result =
        match sh with
        | Insn.Shl -> fun a -> (a lsl n) land m
        | Insn.Shr -> fun a -> (a land m) lsr n
        | Insn.Sar -> (
            (* Arithmetic shift on the masked value's sign. *)
            match sz with
            | Insn.Q -> fun a -> a asr n
            | Insn.B | Insn.L ->
                fun a ->
                  let signed = if a land msb <> 0 then a land m - (m + 1) else a land m in
                  signed asr n land m)
      in
      modify ~what:"shift of immediate" sz dst (fun st a ->
          let r = result a in
          if n <> 0 then begin
            set_zsp st sz r;
            (match sh with
            | Insn.Shl -> st.cf <- (a lsl n) land m land msb <> 0 && n = 1
            | Insn.Shr | Insn.Sar -> st.cf <- (a land m) lsr (n - 1) land 1 = 1);
            st.o_f <- false
          end;
          r)
  | Insn.Push r ->
      let i = Reg.index r in
      fun st -> push st (Array.unsafe_get st.regs i)
  | Insn.Pop r ->
      let i = Reg.index r in
      fun st ->
        let v = pop st in
        Array.unsafe_set st.regs i v
  | Insn.Pushfq -> fun st -> push st (pushfq st)
  | Insn.Popfq -> fun st -> popfq st (pop st)
  | Insn.Call rel ->
      let jump = goto_const ~from:here (next_rip + rel) in
      fun st ->
        push st next_rip;
        jump st
  | Insn.Call_ind op ->
      let target = get Insn.Q op in
      fun st ->
        let t = target st in
        push st next_rip;
        goto st ~from:here t
  | Insn.Ret -> fun st -> goto st ~from:here (pop st)
  | Insn.Jmp rel | Insn.Jmp_short rel -> goto_const ~from:here (next_rip + rel)
  | Insn.Jmp_ind op ->
      let target = get Insn.Q op in
      fun st -> goto st ~from:here (target st)
  | Insn.Jcc (c, rel) | Insn.Jcc_short (c, rel) ->
      let test = cond_fn c and jump = goto_const ~from:here (next_rip + rel) in
      fun st -> if test st then jump st
  | Insn.Int3 -> (
      (* B0: the SIGTRAP handler redirects to the patch trampoline. *)
      match Hashtbl.find_opt st.trap_table here with
      | Some trampoline ->
          let jump = goto_const ~from:here trampoline in
          fun st ->
            st.cycles <- st.cycles + st.cfg.trap_penalty;
            st.trap_count <- st.trap_count + 1;
            jump st
      | None -> fun _ -> fault_at here "int3 with no trap-table entry")
  | Insn.Int n ->
      if Hostcall.is_hostcall n then hostcall ~counters:st.counters ~site:here n
      else fun _ -> fault_at here (Printf.sprintf "int 0x%x" n)
  | Insn.Syscall -> syscall
  | Insn.Ud2 -> fun _ -> fault_at here "ud2"
  | Insn.Unknown b ->
      fun _ -> fault_at here (Printf.sprintf "undecodable byte 0x%02x" b)

let unwatched = { retire = false; stores = true }

(* Lower the instruction [d] decoded at [here], asking the tracer once
   whether its retire is reported and whether its stores are. *)
let lower_op st ~here (d : Decode.decoded) =
  let w =
    match st.tracer with
    | None -> unwatched
    | Some t -> t.watch ~addr:here ~insn:d.Decode.insn
  in
  let report = if w.stores then st.tracer else None in
  let next_rip = here + d.Decode.len in
  { addr = here;
    next = next_rip;
    exec = lower st ~here ~next_rip ~report d.Decode.insn;
    retire = w.retire }

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
    Itbl.reset st.bcache;
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
        buf := lower_op st ~here:!a d :: !buf;
        incr n;
        a := !a + d.Decode.len;
        if terminates d || !n >= max_block_len then stop := true
  done;
  Array.of_list (List.rev !buf)

let block_at st addr =
  match Itbl.find st.bcache addr with
  | b ->
      st.block_hits <- st.block_hits + 1;
      b
  | exception Not_found ->
      let b = build_block st addr in
      st.block_misses <- st.block_misses + 1;
      Itbl.replace st.bcache addr b;
      b

(* One retire: the counters, the RIP ring, the tracer's boundary event
   when the lowered op carries the bit, then the op itself with RIP
   already at the next instruction. *)
let step st op =
  st.ring.(st.insns land 31) <- op.addr;
  st.insns <- st.insns + 1;
  st.cycles <- st.cycles + 1;
  (if op.retire then
     match st.tracer with
     | Some t -> t.on_retire ~addr:op.addr ~regs:st.regs
     | None -> ());
  st.rip <- op.next;
  op.exec st

(* Execute a whole superblock. The fuel check happened at block entry; per
   instruction only the retire and the generation check remain. A
   mid-block write to executable memory (self-modifying code) aborts the
   block after the writing instruction: the rest of the lowered array may
   be stale, so control returns to the outer loop, which lowers again from
   the (already correct) RIP. *)
let exec_block st (b : block) =
  let n = Array.length b in
  let rec go i =
    if i < n then begin
      step st (Array.unsafe_get b i);
      if Space.generation st.space <> st.cache_gen then check_code_gen st
      else go (i + 1)
    end
  in
  go 0

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
      bcache = Itbl.create 1024;
      cache_gen = Space.generation space;
      block_hits = 0;
      block_misses = 0;
      block_invalidations = 0;
      trap_table = traps;
      counters = Itbl.create 64;
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
        if st.insns + Array.length b <= config.fuel then exec_block st b
        else
          (* Not enough fuel for the whole block: single-step its first
             instruction so that fuel exhaustion lands on the exact
             instruction count. *)
          step st b.(0)
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
        (Itbl.fold
           (fun k c acc -> if !c > 0 then (k, !c) :: acc else acc)
           st.counters []);
    last_rips =
      (let n = min st.insns 32 in
       List.init n (fun i -> st.ring.((st.insns - n + i) land 31)));
    block_hits = st.block_hits;
    block_misses = st.block_misses;
    block_invalidations = st.block_invalidations;
    blocks_cached = Itbl.length st.bcache }
