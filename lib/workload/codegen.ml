module Buf = E9_bits.Buf
module Rng = E9_bits.Rng
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Hostcall = E9_emu.Hostcall

exception Error of string

type profile = {
  name : string;
  seed : int64;
  pie : bool;
  functions : int;
  blocks_per_fn : int;
  short_jump_bias : float;
  heap_write_bias : float;
  big_disp_bias : float;
  small_write_bias : float;
  block_insns : int;
  pic_table_bias : float;
  data_in_text_kb : int;
  bss_mb : int;
  shared_object : bool;
  iterations : int;
  (* Adversarial knobs (the robustness corpus; all inert at default). *)
  lock_bias : float;
  tiny_run_bias : float;
  island_bias : float;
  alias_bias : float;
  far_gap_kb : int;
  endbr64_entries : bool;
}

let default_profile =
  { name = "default";
    seed = 1L;
    pie = false;
    functions = 24;
    blocks_per_fn = 10;
    short_jump_bias = 0.45;
    heap_write_bias = 0.12;
    big_disp_bias = 0.25;
    small_write_bias = 0.3;
    block_insns = 4;
    pic_table_bias = 0.4;
    data_in_text_kb = 0;
    bss_mb = 0;
    shared_object = false;
    iterations = 400;
    lock_bias = 0.0;
    tiny_run_bias = 0.0;
    island_bias = 0.0;
    alias_bias = 0.0;
    far_gap_kb = 0;
    endbr64_entries = false }

let chromemain_marker = ".text.chromemain"
let islands_section = ".e9.islands"
let base_nonpie = 0x400000
let base_pie = 0x5555_5555_4000
let buf_size = 4096
let align4k n = (n + 4095) / 4096 * 4096

(* Registers with fixed roles; everything else is block scratch. *)
let checksum = Reg.R15
let heap_a = Reg.R14
let main_ctr = Reg.R13
let heap_b = Reg.R12

let scratch =
  [| Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9;
     Reg.R10; Reg.R11 |]

type table_kind = Abs | Pic

type gen = {
  rng : Rng.t;
  asm : Asm.t;
  prof : profile;
  base_addr : int;
  data_base : int;
  mutable table_off : int;  (* next free slot in .rodata *)
  mutable tables : (int * table_kind * Asm.label array) list;
      (* rodata offset, entry encoding, targets *)
  mutable raw_tables : (int * int array) list;
      (* rodata offset, absolute addresses (imports from other binaries) *)
  mutable islands : (int * int) list;
      (* mid-function data islands: (absolute addr, byte length) *)
}

(* Reserve a .rodata slot for a jump/call table; returns its absolute
   address. [Abs] tables hold 8-byte absolute code addresses; [Pic] tables
   hold 4-byte offsets from the text base (the position-independent switch
   pattern). Contents are filled in after assembly. *)
let alloc_table g kind labels =
  let entry = match kind with Abs -> 8 | Pic -> 4 in
  let off = g.table_off in
  g.table_off <- off + (entry * Array.length labels);
  (* keep 8-byte alignment for subsequent tables *)
  g.table_off <- (g.table_off + 7) / 8 * 8;
  g.tables <- (off, kind, labels) :: g.tables;
  g.data_base + off

(* A table of pre-resolved absolute addresses — the import table (GOT) of
   an executable calling into an already-loaded shared object. *)
let alloc_import_table g addrs =
  let off = g.table_off in
  g.table_off <- off + (8 * Array.length addrs);
  g.raw_tables <- (off, addrs) :: g.raw_tables;
  g.data_base + off

let reg g = Rng.pick g.rng scratch
let imm8 g = Rng.range g.rng (-100) 100
let imm32 g = Rng.range g.rng (-100000) 100000
let ins g i = Asm.ins g.asm i

(* A bounded heap operand on one of the two buffers. Small displacements
   give 4-byte encodings (needing puns); disp32 gives 7-byte ones (B1). *)
let heap_mem g =
  let base = if Rng.bool g.rng then heap_a else heap_b in
  if Rng.chance g.rng g.prof.big_disp_bias then
    Insn.mem ~base ~disp:(128 + (8 * Rng.int g.rng 400)) ()
  else Insn.mem ~base ~disp:(8 * Rng.int g.rng 16) ()

(* An indexed heap write: mask the index register first so the access stays
   inside the buffer. *)
let emit_indexed_heap_write g =
  let idx = Rng.pick g.rng [| Reg.R10; Reg.R11 |] in
  let src = reg g in
  ins g (Insn.Mov (Insn.Q, Insn.Reg idx, Insn.Reg src));
  ins g (Insn.Alu (Insn.And, Insn.Q, Insn.Reg idx, Insn.Imm 255));
  let base = if Rng.bool g.rng then heap_a else heap_b in
  ins g
    (Insn.Mov
       (Insn.Q, Insn.Mem (Insn.mem ~base ~index:(idx, Insn.S8) ~disp:8 ()),
        Insn.Reg src))

(* A 2-3 byte heap write: copy the buffer pointer into a low (non-REX)
   register first, then write through it. These are the encodings that
   force the punning tactics (len < 4 leaves at most two free bytes). *)
let emit_small_heap_write g =
  let ptr = Rng.pick g.rng [| Reg.RBX; Reg.RSI; Reg.RDI |] in
  let src = Rng.pick g.rng [| Reg.RAX; Reg.RCX; Reg.RDX |] in
  let base = if Rng.bool g.rng then heap_a else heap_b in
  ins g (Insn.Mov (Insn.Q, Insn.Reg ptr, Insn.Reg base));
  let m =
    if Rng.chance g.rng 0.5 then Insn.mem ~base:ptr ()
    else Insn.mem ~base:ptr ~disp:(8 * Rng.int g.rng 15) ()
  in
  let sz = if Rng.chance g.rng 0.3 then Insn.B else Insn.L in
  ins g (Insn.Mov (sz, Insn.Mem m, Insn.Reg src))

(* A lock-prefixed read-modify-write through a low (non-REX) pointer
   register: [f0 01 0b]-style 3-4 byte sites. The decoder folds the
   prefix into the instruction; a displacing tactic re-encodes it without
   the prefix, which the single-threaded emulator cannot observe —
   E9Patch's own transparency caveat for atomics. What the corpus tests
   is that the extra prefix byte (shifting the pun geometry by one) never
   breaks byte accounting. *)
let emit_locked_rmw g =
  let ptr = Rng.pick g.rng [| Reg.RBX; Reg.RSI; Reg.RDI |] in
  let src = Rng.pick g.rng [| Reg.RAX; Reg.RCX; Reg.RDX |] in
  let base = if Rng.bool g.rng then heap_a else heap_b in
  ins g (Insn.Mov (Insn.Q, Insn.Reg ptr, Insn.Reg base));
  let m =
    if Rng.chance g.rng 0.5 then Insn.mem ~base:ptr ()
    else Insn.mem ~base:ptr ~disp:(8 * (1 + Rng.int g.rng 14)) ()
  in
  Asm.ins_raw g.asm "\xf0";
  ins g
    (Insn.Alu
       ( Rng.pick g.rng [| Insn.Add; Insn.Or; Insn.And; Insn.Xor |],
         Insn.L, Insn.Mem m, Insn.Reg src ))

let emit_heap_write g =
  (* The bias > 0 guards keep zero-bias profiles from consuming a draw:
     legacy profiles must generate the exact same bytes as before these
     knobs existed (fixed-seed tests and goldens depend on it). *)
  if g.prof.lock_bias > 0.0 && Rng.chance g.rng g.prof.lock_bias then
    emit_locked_rmw g
  else if Rng.chance g.rng g.prof.small_write_bias then
    emit_small_heap_write g
  else
  match Rng.int g.rng 5 with
  | 0 -> emit_indexed_heap_write g
  | 1 -> ins g (Insn.Mov (Insn.B, Insn.Mem (heap_mem g), Insn.Reg (reg g)))
  | 2 ->
      if Rng.chance g.rng 0.3 then
        (* an in-place counter bump: incq disp(%r14) *)
        let m = Insn.Mem (heap_mem g) in
        ins g
          (if Rng.bool g.rng then Insn.Inc (Insn.Q, m)
           else Insn.Dec (Insn.Q, m))
      else
        ins g
          (Insn.Alu
             ( Rng.pick g.rng [| Insn.Add; Insn.Xor; Insn.Or; Insn.And |],
               Insn.Q, Insn.Mem (heap_mem g), Insn.Reg (reg g) ))
  | 3 -> ins g (Insn.Mov (Insn.L, Insn.Mem (heap_mem g), Insn.Imm (imm32 g)))
  | _ -> ins g (Insn.Mov (Insn.Q, Insn.Mem (heap_mem g), Insn.Reg (reg g)))

let cc_pool = [| Insn.E; Insn.NE; Insn.L_; Insn.GE; Insn.LE; Insn.G; Insn.B_; Insn.AE |]

(* Emit a deterministic, data-dependent condition. *)
let emit_condition g =
  if Rng.bool g.rng then
    ins g (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg (reg g), Insn.Imm (imm8 g)))
  else ins g (Insn.Alu (Insn.Test, Insn.Q, Insn.Reg (reg g), Insn.Reg (reg g)))

(* Immediates whose last-emitted (most significant) byte is a legal x86
   prefix: the byte sitting directly before the next instruction then
   reads as 0x66/0x2e/0x48/0x3e. A verifier classifying a padded patch
   jump must not take these unchanged look-alike bytes as T1 padding —
   they belong to the previous instruction. *)
let alias_imms = [| 0x6648_2e90; 0x2e66_4890; 0x4890_6666; 0x3e2e_6648 |]

let emit_alias_padded_site g =
  let dst = Rng.pick g.rng [| Reg.RAX; Reg.RCX; Reg.RDX |] in
  ins g (Insn.Mov (Insn.L, Insn.Reg dst, Insn.Imm (Rng.pick g.rng alias_imms)));
  emit_small_heap_write g

let emit_body_insn g =
  if g.prof.alias_bias > 0.0 && Rng.chance g.rng g.prof.alias_bias then
    emit_alias_padded_site g
  else if Rng.chance g.rng g.prof.heap_write_bias then emit_heap_write g
  else
    match Rng.int g.rng 16 with
    | 0 -> ins g (Insn.Mov (Insn.Q, Insn.Reg (reg g), Insn.Reg (reg g)))
    | 1 -> ins g (Insn.Mov (Insn.Q, Insn.Reg (reg g), Insn.Imm (imm32 g)))
    | 2 ->
        ins g
          (Insn.Alu
             ( Rng.pick g.rng [| Insn.Add; Insn.Sub; Insn.Xor; Insn.Or; Insn.And |],
               Insn.Q, Insn.Reg (reg g), Insn.Reg (reg g) ))
    | 3 ->
        ins g
          (Insn.Alu
             ( Rng.pick g.rng [| Insn.Add; Insn.Sub; Insn.Xor |],
               Insn.Q, Insn.Reg (reg g),
               Insn.Imm (if Rng.bool g.rng then imm8 g else imm32 g) ))
    | 4 -> ins g (Insn.Imul (reg g, Insn.Reg (reg g)))
    | 5 ->
        ins g
          (Insn.Shift
             ( Rng.pick g.rng [| Insn.Shl; Insn.Shr; Insn.Sar |],
               Insn.Q, Insn.Reg (reg g), 1 + Rng.int g.rng 7 ))
    | 6 ->
        (* heap read *)
        ins g (Insn.Mov (Insn.Q, Insn.Reg (reg g), Insn.Mem (heap_mem g)))
    | 7 ->
        ins g
          (Insn.Lea
             ( reg g,
               Insn.mem ~base:(reg g) ~index:(Rng.pick g.rng [| Reg.RBX; Reg.RCX |], Insn.S4)
                 ~disp:(imm8 g) () ))
    | 8 ->
        (* fold into the checksum: make behaviour path-dependent *)
        ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg checksum, Insn.Reg (reg g)))
    | 9 -> ins g (Insn.Alu (Insn.Xor, Insn.Q, Insn.Reg checksum, Insn.Reg (reg g)))
    | 10 -> ins g (Insn.Nop (1 + Rng.int g.rng 4))
    | 11 ->
        ins g (Insn.Mov (Insn.B, Insn.Reg (reg g), Insn.Imm (Rng.int g.rng 128)))
    | 12 ->
        (* a boolean result materialized with setcc *)
        emit_condition g;
        ins g (Insn.Setcc (Rng.pick g.rng cc_pool, Insn.Reg (reg g)))
    | 13 ->
        emit_condition g;
        ins g (Insn.Cmov (Rng.pick g.rng cc_pool, reg g, Insn.Reg (reg g)))
    | 14 ->
        (* byte load widened from the heap *)
        ins g (Insn.Movzx (reg g, Insn.Mem (heap_mem g)))
    | _ ->
        if Rng.bool g.rng then ins g (Insn.Neg (Insn.Q, Insn.Reg (reg g)))
        else ins g (Insn.Not (Insn.Q, Insn.Reg (reg g)))

(* A dense strip of 2-3 byte instructions (no REX: low registers only).
   Every jump and write site in the strip is too short for a direct
   5-byte patch jump, and its neighbours leave no pun slack — the tactic
   ladder must run T2/T3 eviction chains, and once every displaceable
   victim within rel8 range is consumed, fall through to B0. Long runs
   (up to ~200 bytes) push the nearest >= 5-byte victim beyond the short
   jump's +127 reach for the sites in the middle. *)
let emit_tiny_run g =
  let ptr = Rng.pick g.rng [| Reg.RBX; Reg.RSI; Reg.RDI |] in
  let base = if Rng.bool g.rng then heap_a else heap_b in
  ins g (Insn.Mov (Insn.Q, Insn.Reg ptr, Insn.Reg base));
  let lows = [| Reg.RAX; Reg.RCX; Reg.RDX |] in
  let k = 24 + Rng.int g.rng 40 in
  for _ = 1 to k do
    let a = Rng.pick g.rng lows and b = Rng.pick g.rng lows in
    match Rng.int g.rng 5 with
    | 0 ->
        (* 2-byte store: 89 /r *)
        ins g (Insn.Mov (Insn.L, Insn.Mem (Insn.mem ~base:ptr ()), Insn.Reg a))
    | 1 ->
        (* 3-byte store, disp8 *)
        ins g
          (Insn.Mov
             ( Insn.L,
               Insn.Mem (Insn.mem ~base:ptr ~disp:(4 * (1 + Rng.int g.rng 30)) ()),
               Insn.Reg a ))
    | 2 ->
        (* 2-byte conditional short hop over one 2-byte ALU *)
        ins g (Insn.Alu (Insn.Test, Insn.L, Insn.Reg a, Insn.Reg a));
        let skip = Asm.fresh_label g.asm "tiny" in
        Asm.jcc_short g.asm (Rng.pick g.rng cc_pool) skip;
        ins g (Insn.Alu (Insn.Add, Insn.L, Insn.Reg a, Insn.Reg b));
        Asm.place g.asm skip
    | _ ->
        ins g
          (Insn.Alu
             ( Rng.pick g.rng [| Insn.Add; Insn.Xor; Insn.Or |],
               Insn.L, Insn.Reg a, Insn.Reg b ))
  done

(* A mid-function data island: a rel32 jmp hops over a random blob that
   linear disassembly cannot tell from code. Both ends of the blob are
   folded into the checksum, so a tactic that treats a phantom decoded
   "instruction" inside the island as an eviction victim (or a selector
   that patches one) becomes an observable trace divergence. The island
   extents are recorded in {!islands_section} as ground-truth metadata —
   rewriting these binaries correctly requires exclusion ranges, exactly
   the paper's §6.2 Chrome situation generalized past a leading pool. *)
let emit_island g =
  let skip = Asm.fresh_label g.asm "isl" in
  Asm.jmp g.asm skip;
  let addr = Asm.here g.asm in
  let len = 8 * (3 + Rng.int g.rng 6) in
  Asm.ins_raw g.asm (String.init len (fun _ -> Char.chr (Rng.int g.rng 256)));
  Asm.place g.asm skip;
  g.islands <- (addr, len) :: g.islands;
  ins g (Insn.Movabs (Reg.R11, Int64.of_int addr));
  ins g
    (Insn.Mov (Insn.Q, Insn.Reg Reg.R10, Insn.Mem (Insn.mem ~base:Reg.R11 ())));
  ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg checksum, Insn.Reg Reg.R10));
  ins g
    (Insn.Mov
       ( Insn.Q, Insn.Reg Reg.R10,
         Insn.Mem (Insn.mem ~base:Reg.R11 ~disp:(len - 8) ()) ));
  ins g (Insn.Alu (Insn.Xor, Insn.Q, Insn.Reg checksum, Insn.Reg Reg.R10))

(* One function: a forward-only DAG of basic blocks ending in ret. *)
let emit_function g ?far_ret fn_label n_blocks =
  Asm.place g.asm fn_label;
  if g.prof.endbr64_entries then ins g Insn.Endbr64;
  ins g (Insn.Push Reg.RBX);
  let labels =
    Array.init n_blocks (fun i -> Asm.fresh_label g.asm (Printf.sprintf "b%d" i))
  in
  for b = 0 to n_blocks - 1 do
    Asm.place g.asm labels.(b);
    let n_insns = 1 + Rng.int g.rng (max 1 ((2 * g.prof.block_insns) - 1)) in
    for _ = 1 to n_insns do
      emit_body_insn g
    done;
    if g.prof.tiny_run_bias > 0.0 && Rng.chance g.rng g.prof.tiny_run_bias
    then emit_tiny_run g;
    if g.prof.island_bias > 0.0 && Rng.chance g.rng g.prof.island_bias then
      emit_island g;
    let remaining = n_blocks - 1 - b in
    if remaining > 0 then begin
      (* Choose a terminator. All targets are forward: the DAG guarantees
         termination no matter which way conditions go. *)
      let forward () = labels.(b + 1 + Rng.int g.rng remaining) in
      (* A short branch hops over a small inline tail — an if-statement
         shape whose rel8 distance is bounded by construction. *)
      let short_hop emit_branch =
        let skip = Asm.fresh_label g.asm "skip" in
        emit_branch skip;
        ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg checksum, Insn.Imm (imm8 g)));
        for _ = 1 to Rng.int g.rng 3 do
          emit_body_insn g
        done;
        Asm.place g.asm skip
      in
      match Rng.int g.rng 100 with
      | n when n < 55 ->
          emit_condition g;
          if Rng.chance g.rng g.prof.short_jump_bias then
            short_hop (Asm.jcc_short g.asm (Rng.pick g.rng cc_pool))
          else Asm.jcc g.asm (Rng.pick g.rng cc_pool) (forward ())
      | n when n < 65 ->
          if Rng.chance g.rng g.prof.short_jump_bias then
            (* An unconditional short jump over a cold tail. *)
            short_hop (Asm.jmp_short g.asm)
          else Asm.jmp g.asm (forward ())
      | n when n < 72 && remaining >= 2 ->
          (* Indirect jump through a table: a C switch. PIC-style tables
             hold 32-bit offsets from the text base and are invisible to
             pointer-scanning CFG heuristics. *)
          let k = min remaining 4 in
          let targets = Array.init k (fun i -> labels.(b + 1 + i)) in
          ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.R10, Insn.Reg checksum));
          ins g (Insn.Alu (Insn.And, Insn.Q, Insn.Reg Reg.R10, Insn.Imm (k - 1)));
          if Rng.chance g.rng g.prof.pic_table_bias then begin
            (* The computed target lives in %rbp, which generated code
               never reads otherwise: programs stay address-agnostic, so a
               (sound) relocating rewriter is still behaviour-preserving. *)
            let table = alloc_table g Pic targets in
            ins g (Insn.Movabs (Reg.R11, Int64.of_int table));
            ins g
              (Insn.Mov
                 ( Insn.L, Insn.Reg Reg.RBP,
                   Insn.Mem (Insn.mem ~base:Reg.R11 ~index:(Reg.R10, Insn.S4) ()) ));
            ins g (Insn.Movabs (Reg.R11, Int64.of_int g.base_addr));
            ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.RBP, Insn.Reg Reg.R11));
            ins g (Insn.Jmp_ind (Insn.Reg Reg.RBP))
          end
          else begin
            let table = alloc_table g Abs targets in
            ins g (Insn.Movabs (Reg.R11, Int64.of_int table));
            ins g
              (Insn.Jmp_ind
                 (Insn.Mem (Insn.mem ~base:Reg.R11 ~index:(Reg.R10, Insn.S8) ())))
          end
      | _ -> () (* fallthrough *)
    end
  done;
  ins g (Insn.Pop Reg.RBX);
  (* With a far-gap profile every function returns through a shared ret
     thunk on the far side of a nop desert: the tail jmps carry rel32
     displacements in the hundreds of KiB, stressing displacement
     arithmetic far from the usual few-hundred-byte offsets. *)
  match far_ret with
  | None -> ins g Insn.Ret
  | Some l -> Asm.jmp g.asm l

(* The §6.2 Chrome challenge: a constant pool embedded at the start of the
   text section. The program jumps over it at entry and reads from it every
   iteration, so a rewriter that naively patches "instructions" linearly
   decoded from the pool corrupts observable behaviour. Returns the address
   of the first real instruction (the "ChromeMain" of this binary). *)
let emit_text_data_prefix g =
  if g.prof.data_in_text_kb = 0 then (Asm.here g.asm, None)
  else begin
    let code_start = Asm.fresh_label g.asm "chromemain" in
    Asm.jmp g.asm code_start;
    let blob_addr = Asm.here g.asm in
    let blob_len = g.prof.data_in_text_kb * 1024 in
    let blob =
      String.init blob_len (fun _ -> Char.chr (Rng.int g.rng 256))
    in
    Asm.ins_raw g.asm blob;
    Asm.place g.asm code_start;
    (Asm.here g.asm, Some (blob_addr, blob_len))
  end

let emit_main g fn_labels loop_body_calls ?blob ?(imports = [||]) () =
  if g.prof.endbr64_entries then ins g Insn.Endbr64;
  (* Allocate the two heap buffers and initialize fixed-role registers. *)
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm buf_size));
  ins g (Insn.Int Hostcall.malloc);
  ins g (Insn.Mov (Insn.Q, Insn.Reg heap_a, Insn.Reg Reg.RAX));
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm buf_size));
  ins g (Insn.Int Hostcall.malloc);
  ins g (Insn.Mov (Insn.Q, Insn.Reg heap_b, Insn.Reg Reg.RAX));
  ins g (Insn.Mov (Insn.Q, Insn.Reg main_ctr, Insn.Imm g.prof.iterations));
  ins g (Insn.Alu (Insn.Xor, Insn.Q, Insn.Reg checksum, Insn.Reg checksum));
  (* Seed the scratch registers deterministically. *)
  Array.iteri
    (fun i r -> ins g (Insn.Mov (Insn.Q, Insn.Reg r, Insn.Imm (i * 1000 + 17))))
    scratch;
  (* Fold the whole in-text constant pool into the checksum once, before
     the main loop: any byte a rewriter corrupts becomes observable
     without distorting the loop's dynamic instruction mix. *)
  (match blob with
  | Some (blob_addr, blob_len) ->
      let scan = Asm.fresh_label g.asm "blob_scan" in
      ins g (Insn.Movabs (Reg.R11, Int64.of_int blob_addr));
      ins g (Insn.Movabs (Reg.RBP, Int64.of_int (blob_addr + blob_len)));
      Asm.place g.asm scan;
      ins g
        (Insn.Mov (Insn.Q, Insn.Reg Reg.R10, Insn.Mem (Insn.mem ~base:Reg.R11 ())));
      ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg checksum, Insn.Reg Reg.R10));
      ins g (Insn.Alu (Insn.Add, Insn.Q, Insn.Reg Reg.R11, Insn.Imm 8));
      ins g (Insn.Alu (Insn.Cmp, Insn.Q, Insn.Reg Reg.R11, Insn.Reg Reg.RBP));
      Asm.jcc g.asm Insn.B_ scan
  | None -> ());
  let loop = Asm.fresh_label g.asm "main_loop" in
  Asm.place g.asm loop;
  List.iter (fun f -> Asm.call g.asm f) loop_body_calls;
  (* Cross-library calls through the import table, if any: the §5.1
     scenario where this binary and its dependency are patched (or not)
     independently. *)
  if Array.length imports > 0 then begin
    let k = Array.length imports in
    let got = alloc_import_table g imports in
    ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.R10, Insn.Reg main_ctr));
    ins g (Insn.Alu (Insn.And, Insn.Q, Insn.Reg Reg.R10, Insn.Imm (k - 1)));
    ins g (Insn.Movabs (Reg.R11, Int64.of_int got));
    ins g
      (Insn.Call_ind
         (Insn.Mem (Insn.mem ~base:Reg.R11 ~index:(Reg.R10, Insn.S8) ())))
  end;
  (* One indirect call per iteration, through a function-pointer table. *)
  let k = min (Array.length fn_labels) 4 in
  let ftab = alloc_table g Abs (Array.sub fn_labels 0 k) in
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.R10, Insn.Reg main_ctr));
  ins g (Insn.Alu (Insn.And, Insn.Q, Insn.Reg Reg.R10, Insn.Imm (k - 1)));
  ins g (Insn.Movabs (Reg.R11, Int64.of_int ftab));
  ins g
    (Insn.Call_ind
       (Insn.Mem (Insn.mem ~base:Reg.R11 ~index:(Reg.R10, Insn.S8) ())));
  ins g (Insn.Dec (Insn.Q, Insn.Reg main_ctr));
  Asm.jcc g.asm Insn.NE loop;
  (* Epilogue: write the 8-byte checksum, exit with its low byte. *)
  ins g (Insn.Push checksum);
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1));
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 1));
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RSI, Insn.Reg Reg.RSP));
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Imm 8));
  ins g Insn.Syscall;
  ins g (Insn.Pop checksum);
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg checksum));
  ins g (Insn.Alu (Insn.And, Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 255));
  ins g (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  ins g Insn.Syscall

let build ?(imports = [||]) prof =
  (* Shared objects load high like PIE executables; what distinguishes
     them is that the dynamic linker owns the space below the base
     (handled by the rewriter's [reserve_below_base]). *)
  let high = prof.pie || prof.shared_object in
  let base = if high then base_pie else base_nonpie in
  (* Budget the text region generously; assert the code fits. The
     adversarial emitters inflate blocks well past the baseline ~100
     bytes, so only profiles that enable them pay for the headroom (the
     estimate — hence every address — is unchanged for legacy knobs). *)
  let per_block =
    100
    + (if prof.tiny_run_bias > 0.0 then 256 else 0)
    + (if prof.island_bias > 0.0 then 160 else 0)
  in
  let est =
    (prof.functions * prof.blocks_per_fn * per_block)
    + (prof.far_gap_kb * 1024) + 4096
  in
  let data_base = base + align4k (est * 2) in
  let g =
    { rng = Rng.create prof.seed;
      asm = Asm.create ~base;
      prof;
      base_addr = base;
      data_base;
      table_off = 0;
      tables = [];
      raw_tables = [];
      islands = [] }
  in
  let fn_labels =
    Array.init prof.functions (fun i ->
        Asm.fresh_label g.asm (Printf.sprintf "f%d" i))
  in
  let code_start, blob = emit_text_data_prefix g in
  (* Main calls a genuinely executed subset of functions per iteration. *)
  let n_calls = min prof.functions (3 + Rng.int g.rng 3) in
  let loop_body_calls =
    List.init n_calls (fun i -> fn_labels.(i * prof.functions / n_calls))
  in
  emit_main g fn_labels loop_body_calls ?blob ~imports ();
  let far_ret =
    if prof.far_gap_kb = 0 then None
    else Some (Asm.fresh_label g.asm "far_ret")
  in
  Array.iter
    (fun fl ->
      let n_blocks = max 2 (prof.blocks_per_fn - 2 + Rng.int g.rng 5) in
      emit_function g ?far_ret fl n_blocks)
    fn_labels;
  (match far_ret with
  | None -> ()
  | Some l ->
      (* The nop desert between the last function and the shared ret
         thunk. Single-byte nops keep a linear sweep trivially in sync. *)
      Asm.ins_raw g.asm (String.make (prof.far_gap_kb * 1024) '\x90');
      Asm.place g.asm l;
      Asm.ins g.asm Insn.Ret);
  let code = Asm.assemble g.asm in
  if Bytes.length code > data_base - base then
    raise
      (Error
         (Printf.sprintf "Codegen: text overflowed its budget (%d > %d)"
            (Bytes.length code) (data_base - base)));
  (* Fill the tables now that label addresses are known. *)
  let rodata = Buf.create (max g.table_off 8) in
  ignore (Buf.add_zeros rodata (max g.table_off 8));
  List.iter
    (fun (off, kind, labels) ->
      Array.iteri
        (fun i l ->
          let target = Asm.label_addr g.asm l in
          match kind with
          | Abs -> Buf.set_u64 rodata (off + (8 * i)) (Int64.of_int target)
          | Pic -> Buf.set_u32 rodata (off + (4 * i)) (target - base))
        labels)
    g.tables;
  List.iter
    (fun (off, addrs) ->
      Array.iteri
        (fun i a -> Buf.set_u64 rodata (off + (8 * i)) (Int64.of_int a))
        addrs)
    g.raw_tables;
  let elf =
    Elf_file.create
      ~etype:(if high then Elf_file.Dyn else Elf_file.Exec)
      ~entry:base
  in
  let text_off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load;
        prot = Elf_file.prot_rx;
        vaddr = base;
        offset = 0;
        filesz = 0;
        memsz = Bytes.length code;
        align = 4096 }
      ~content:code
  in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_r;
         vaddr = data_base;
         offset = 0;
         filesz = 0;
         memsz = Buf.length rodata;
         align = 4096 }
       ~content:(Buf.contents rodata));
  if prof.bss_mb > 0 then begin
    let bss_base = data_base + align4k (Buf.length rodata) in
    ignore
      (Elf_file.add_segment elf
         { Elf_file.ptype = Elf_file.Load;
           prot = Elf_file.prot_rw;
           vaddr = bss_base;
           offset = 0;
           filesz = 0;
           memsz = prof.bss_mb * (1 lsl 20);
           align = 4096 }
         ~content:Bytes.empty)
  end;
  (* Ground-truth table metadata: consumed only by the relocating baseline
     rewriter (E9Patch never reads it). *)
  let meta =
    List.rev_map
      (fun (off, kind, labels) ->
        { Tablemeta.addr = data_base + off;
          kind = (match kind with Abs -> Tablemeta.Abs64 | Pic -> Tablemeta.Off32 base);
          entries = Array.length labels })
      g.tables
    @ List.rev_map
        (fun (off, addrs) ->
          { Tablemeta.addr = data_base + off;
            kind = Tablemeta.Abs64;
            entries = Array.length addrs })
        g.raw_tables
  in
  ignore
    (Elf_file.add_section elf ~name:Tablemeta.section_name ~addr:0 ~sh_type:1
       ~sh_flags:0 ~content:(Tablemeta.encode meta));
  (* Island ground truth: (addr, len) u64 pairs. A correct campaign turns
     these into exclusion/keep ranges before rewriting. *)
  (match g.islands with
  | [] -> ()
  | isl ->
      let isl = List.rev isl in
      let b = Buf.create (16 * List.length isl) in
      List.iter
        (fun (a, l) ->
          ignore (Buf.add_u64 b (Int64.of_int a));
          ignore (Buf.add_u64 b (Int64.of_int l)))
        isl;
      ignore
        (Elf_file.add_section elf ~name:islands_section ~addr:0 ~sh_type:1
           ~sh_flags:0 ~content:(Buf.contents b)));
  (* The .text section marks the region the frontend disassembles; the
     zero-sized marker is the "ChromeMain symbol" a frontend can use to
     skip the data prefix (§6.2). *)
  elf.Elf_file.sections <-
    { Elf_file.name = ".text";
      sh_type = 1;
      sh_flags = 6;
      addr = base;
      offset = text_off;
      size = Bytes.length code }
    :: { Elf_file.name = chromemain_marker;
         sh_type = 1;
         sh_flags = 0;
         addr = code_start;
         offset = text_off + code_start - base;
         size = 0 }
    :: elf.Elf_file.sections;
  (elf, Array.map (Asm.label_addr g.asm) fn_labels)

let generate prof = fst (build prof)

(* Decode the island ground-truth section back out of a generated binary.
   Tolerant of absence (no islands emitted, or the table was stripped);
   intolerant of corruption. *)
let islands elf =
  match Elf_file.find_section elf islands_section with
  | None -> []
  | Some s ->
      let b = Buf.of_bytes (Elf_file.section_bytes elf s) in
      let n = Buf.length b in
      if n mod 16 <> 0 then
        raise
          (Elf_file.Malformed
             (Printf.sprintf "%s: size %d is not a multiple of 16"
                islands_section n));
      List.init (n / 16) (fun i ->
          ( Int64.to_int (Buf.get_u64 b (16 * i)),
            Int64.to_int (Buf.get_u64 b ((16 * i) + 8)) ))

(* A shared library: the same code shape, loaded high, with its function
   entry points exported for an executable's import table. *)
let generate_library prof =
  let prof = { prof with shared_object = true } in
  let elf, fns = build prof in
  (elf, fns)

(* An executable that calls [imports] (addresses inside an already-loaded
   library) through its GOT every iteration. *)
let generate_with_imports prof ~imports = fst (build ~imports prof)

