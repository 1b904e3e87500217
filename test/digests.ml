(* Pinned output digests: the FNV-64 of the serialized output of every
   rewrite over a fixed input set — the Table 1 corpus rows (A1 and A2),
   the adversarial robustness families and the first fuzz cases of the
   fixed-seed campaign — plus the patch-language outputs: tool rewrites
   of the tool-smoke pairs and emits served by the daemon. Any refactor of the rewriter must leave these
   bytes alone; test/digests.txt holds the expected lines and a runtest
   rule diffs this program's output against it. Building the same
   source in an earlier checkout that has the entry points it calls and
   diffing the two outputs shows exactly which digests a change moved.

   With --verify it instead runs the static verifier on every rewrite,
   with the data holes that rewrite used, and pins its report:
   test/verify_digests.txt holds those lines. A verifier change
   that must not move a verdict keeps that file unchanged.

   Usage: digests.exe [--verify | --trace | --emu]
   Prints one line per rewrite: NAME text=TEXT_BYTES DIGEST, or with
   --verify: verify/NAME CHANGED/DIVERSIONS/SHORTS/TRAPS/TRAMPOLINES
   DIGEST, where DIGEST is the FNV-64 of the report's classification
   printed as one ADDR:CLASS line per changed byte; a rejected pair
   prints verify/NAME rejected ADDR:DIGEST, hashing the error's
   reason. With --trace: trace/NAME ok
   EVENTS/BOUNDARY_RETIRES/STORES/INSNS_ORIGINAL/INSNS_REWRITTEN, or
   trace/NAME error MESSAGE with the oracle's full message. With --emu:
   the emulator's own behaviour on both sides of every rewrite and on
   seeded random straight-line programs (see [emu_line] and [random]);
   test/emu_digests.txt holds those lines. *)

module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Adversary = E9_workload.Adversary
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Fuzz = E9_check.Fuzz
module Matrix = E9_check.Matrix
module Tool = E9_tool.Tool
module Json = E9_obs.Json
module Server = E9_rpc.Server
module Harness = E9_rpc.Harness
module Proto = E9_rpc.Proto
module Static = E9_check.Static
module Trace = E9_check.Trace
module Fnv = E9_bits.Fnv
module Cpu = E9_emu.Cpu
module Machine = E9_emu.Machine
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Encode = E9_x86.Encode

let fuzz_seed = 42
let fuzz_cases = 20

(* Set by --verify / --trace / --emu: print the verifier's report, the
   trace oracle's verdict or the emulator's runs instead of the bytes. *)
type mode = Output | Verify | Oracle | Emu

let mode = ref Output

let digest_bytes b = Fnv.hex b ~pos:0 ~len:(Bytes.length b)

let text_size elf =
  match Frontend.find_text elf with Some t -> t.Frontend.size | None -> 0

let verify_line name ?holes ~original out =
  match Static.verify ?holes ~original out with
  | Ok r ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (a, c) -> Printf.bprintf b "0x%x:%s\n" a (Static.class_name c))
        r.Static.classified;
      Printf.printf "verify/%s %d/%d/%d/%d/%d %s\n%!" name
        r.Static.changed_bytes r.Static.diversions r.Static.short_jumps
        r.Static.traps r.Static.trampolines_checked
        (Fnv.to_hex (Fnv.hash64_string (Buffer.contents b)))
  | Error e ->
      Printf.printf "verify/%s rejected 0x%x:%s\n%!" name e.Static.addr
        (Fnv.to_hex (Fnv.hash64_string e.Static.reason))

let trace_line name ?holes ?instr_ranges ~original out =
  match Trace.compare_runs ?holes ?instr_ranges ~original out with
  | Ok s ->
      Printf.printf "trace/%s ok %d/%d/%d/%d/%d\n%!" name s.Trace.events
        s.Trace.boundary_retires s.Trace.stores s.Trace.insns_original
        s.Trace.insns_rewritten
  | Error msg -> Printf.printf "trace/%s error %s\n%!" name msg

let outcome_token = function
  | Cpu.Exited n -> Printf.sprintf "exit=%d" n
  | Cpu.Fault (a, m) ->
      Printf.sprintf "fault=0x%x:%s" a (Fnv.to_hex (Fnv.hash64_string m))
  | Cpu.Violation p -> Printf.sprintf "violation=0x%x" p
  | Cpu.Out_of_fuel -> "fuel"

(* The pinned fields of one run: outcome, instructions, cycles, far
   jumps and traps, then FNV-64 of the per-site counters, of the output
   stream and of the print log. *)
let run_fields (r : Cpu.result) =
  let fnv s = Fnv.to_hex (Fnv.hash64_string s) in
  let counters =
    String.concat ""
      (List.map (fun (a, n) -> Printf.sprintf "0x%x:%d\n" a n) r.Cpu.counters)
  in
  let prints =
    String.concat ""
      (List.map (fun s -> Printf.sprintf "%d:%s" (String.length s) s)
         r.Cpu.prints)
  in
  ( Printf.sprintf "%s/%d/%d/%d/%d" (outcome_token r.Cpu.outcome) r.Cpu.insns
      r.Cpu.cycles r.Cpu.far_jumps r.Cpu.traps,
    Printf.sprintf "c%s.o%s.p%s" (fnv counters) (fnv r.Cpu.output) (fnv prints) )

(* One run of [elf], plainly and under the trace filter built from
   [original]: emu/NAME OUTCOME/INSNS/CYCLES/FAR/TRAPS
   cCOUNTERS.oOUTPUT.pPRINTS.tHASH/EVENTS. The traced run must agree
   with the plain one on every pinned field; where it does not, the
   line says so. *)
let emu_run name ?holes ?instr_ranges ~original elf =
  let plain = run_fields (Machine.run elf) in
  let traced, events, hash =
    Trace.run_digest ?holes ?instr_ranges ~original elf
  in
  let fields, hashes = plain in
  Printf.printf "emu/%s %s %s.t%x/%d%s\n%!" name fields hashes hash events
    (if run_fields traced = plain then "" else ".traced-differs")

let emu_line name ?holes ?instr_ranges original out =
  emu_run ("original/" ^ name) ?holes ?instr_ranges ~original original;
  emu_run ("rewrite/" ^ name) ?holes ?instr_ranges ~original out

(* One pinned rewrite of [original] into [out]; [holes] are what the
   rewrite itself used, [instr_ranges] the pages of the runtime it
   carries. *)
let line name ?holes ?instr_ranges original out =
  match !mode with
  | Verify -> verify_line name ?holes ~original out
  | Oracle -> trace_line name ?holes ?instr_ranges ~original out
  | Emu -> emu_line name ?holes ?instr_ranges original out
  | Output ->
      Printf.printf "%s text=%d %s\n%!" name (text_size original)
        (digest_bytes (Elf_file.to_bytes out))

(* A case with no rewrite to pin ([skipped], [refused]). *)
let missing name what =
  let prefix =
    match !mode with
    | Output -> ""
    | Verify -> "verify/"
    | Oracle -> "trace/"
    | Emu -> "emu/"
  in
  Printf.printf "%s%s %s\n%!" prefix name what

let rewrite ?options ?holes elf ~select =
  Rewriter.run ?options ?holes elf ~select ~template:(fun _ -> Trampoline.Empty)

(* The bench's Table 1 setup: default options (shared objects reserve
   the space below their base) and the generator's holes (the ChromeMain
   pool). *)
let corpus () =
  List.iter
    (fun (row : Suite.row) ->
      let p = row.Suite.profile in
      let elf = Codegen.generate p in
      let options =
        { Rewriter.default_options with
          Rewriter.reserve_below_base = p.Codegen.shared_object }
      in
      let holes = Codegen.holes elf in
      List.iter
        (fun (tag, select) ->
          line
            (Printf.sprintf "corpus/%s/%s" p.Codegen.name tag)
            ~holes elf
            (rewrite ~options ~holes elf ~select).Rewriter.output)
        [ ("a1", Frontend.select_jumps); ("a2", Frontend.select_heap_writes) ])
    Suite.rows

(* The robustness matrix's interpretation of a family — stripped
   round trip, data holes, B0 fallback — at the default text geometry. *)
let robust () =
  List.iter
    (fun (f : Adversary.family) ->
      let elf, holes = Matrix.prepare f in
      let select =
        match f.Adversary.selector with
        | Adversary.Jumps -> Frontend.select_jumps
        | Adversary.Heap_writes -> Frontend.select_heap_writes
      in
      line ("robust/" ^ f.Adversary.name) ~holes elf
        (rewrite ~options:(Matrix.options_of f) ~holes elf ~select)
          .Rewriter.output)
    Adversary.families

(* The fuzz campaign's case stream (the fuzz-smoke seed); cases whose
   profile cannot be generated are listed as skipped. *)
let fuzz () =
  let rand = Random.State.make [| fuzz_seed |] in
  for i = 1 to fuzz_cases do
    let case = QCheck2.Gen.generate1 ~rand Fuzz.gen_case in
    match Fuzz.rewrite case with
    | elf, holes, r ->
        line (Printf.sprintf "fuzz/%02d" i) ~holes elf r.Rewriter.output
    | exception Codegen.Error _ ->
        missing (Printf.sprintf "fuzz/%02d" i) "skipped"
  done

(* The tool-smoke input ([generate --functions 40 --iterations 80
   --seed 7]), as the CLI reads it back from the file. *)
let smoke_input =
  lazy
    (Elf_file.of_bytes
       (Elf_file.to_bytes
          (Codegen.generate
             { Codegen.default_profile with
               Codegen.seed = 7L; functions = 40; iterations = 80 })))

(* [tool -M m -P p] on the smoke input: the tool-smoke pairs plus a
   naked call. *)
let tool () =
  let elf = Lazy.force smoke_input in
  List.iter
    (fun (m, p) ->
      let res = Tool.run elf [ Tool.rule_of ~m ~p () ] in
      let rt = res.Tool.runtime in
      line (Printf.sprintf "tool/%s|%s" m p)
        ~instr_ranges:rt.Tool.instr_ranges rt.Tool.augmented
        res.Tool.rewrite.Rewriter.output)
    [ ("jumps", "print"); ("all", "count"); ("returns", "trap");
      ("heap-writes", "lowfat"); ("mnemonic mov and op[0].type == reg", "empty");
      ("calls", "call:clean record(addr,size,3)");
      ("returns", "call:naked counter()") ]

(* Emits served by the daemon for one session's messages (after loading
   the smoke input), driven through the in-process transport. Rules that
   keep state in the runtime rewrite the input with the runtime
   injected: --verify and --trace check every emit against the rewrite
   input [Tool.runtime_in] finds in it (as [check] does), the runtime's
   pages private. *)
let served () =
  let elf = Lazy.force smoke_input in
  let raw = Elf_file.to_bytes elf in
  let serve name msgs =
    let server = Server.create () in
    let conn = Server.connect server in
    let load =
      Harness.request ~id:1 "binary" [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
    in
    let emit = Harness.request ~id:99 "emit" [ ("data", Json.Bool true) ] in
    let outs =
      List.concat_map
        (fun l -> fst (Server.feed conn l))
        ((load :: List.mapi (fun i (meth, params) -> Harness.request ~id:(i + 2) meth params) msgs)
        @ [ emit ])
    in
    Server.close_conn conn;
    let data =
      match Json.of_string (List.nth outs (List.length outs - 1)) with
      | Ok j -> (
          match Option.bind (Json.member "result" j) (Json.member "data") with
          | Some (Json.Str hex) -> Result.to_option (Proto.bytes_of_hex hex)
          | _ -> None)
      | Error _ -> None
    in
    match (data, !mode) with
    | Some b, Output ->
        Printf.printf "served/%s text=%d %s\n%!" name (text_size elf)
          (digest_bytes b)
    | Some b, (Verify | Oracle | Emu) -> (
        let out = Elf_file.of_bytes b in
        let rt = Tool.runtime_in ~original:elf out in
        line ("served/" ^ name) ~instr_ranges:rt.Tool.instr_ranges
          rt.Tool.augmented out)
    | None, _ -> missing ("served/" ^ name) "refused"
  in
  List.iter
    (fun spec -> serve ("patch " ^ spec) [ ("patch", [ ("spec", Json.Str ("patch " ^ spec)) ]) ])
    [ "jumps with counter"; "heap-writes with lowfat"; "heap-writes with empty" ];
  serve "selector jumps+counter"
    [ ("patch", [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "counter") ]) ];
  serve "tool jumps|count"
    [ ("tool", [ ("match", Json.Str "jumps"); ("patch", Json.Str "count") ]) ]

(* ------------------------------------------------------------------ *)
(* Seeded random straight-line programs (--emu)                        *)
(* ------------------------------------------------------------------ *)

let random_programs = 200
let random_seed = 31
let random_length = 160
let code_base = 0x400000

(* Two data pages with nothing mapped after them: RBP points 64 bytes
   below the page boundary, so memory operands cross it, and a print
   from near the end of the second page runs into the unmapped page. *)
let data_base = 0x600000
let data_size = 8192
let data_mid = data_base + 4096 - 64

(* RBP (data), R12 (a small index) and RSP are never written; every
   other register is. *)
let free_regs =
  [| Reg.RAX; Reg.RBX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9;
     Reg.R10; Reg.R11; Reg.R13; Reg.R14; Reg.R15 |]

let all_regs = Array.init 16 Reg.of_index

let pick rand a = a.(Random.State.int rand (Array.length a))

let random_program rand =
  let asm = Asm.create ~base:code_base in
  let int n = Random.State.int rand n in
  let free () = pick rand free_regs in
  let size () = pick rand [| Insn.B; Insn.L; Insn.Q |] in
  let scale () = pick rand [| Insn.S1; Insn.S2; Insn.S4; Insn.S8 |] in
  let cc () = Insn.cc_of_index (int 16) in
  let imm sz =
    match sz with
    | Insn.B -> int 256 - 128
    | Insn.L | Insn.Q ->
        if int 2 = 0 then int 256 - 128 else Random.State.bits rand - (1 lsl 29)
  in
  (* A data address the access may start at: every form below lands in
     the two data pages or just below the stack top. *)
  let mem_access () =
    match int 6 with
    | 0 -> `M (Insn.mem ~base:Reg.RBP ~disp:(int 256 - 128) ())
    | 1 -> `M (Insn.mem ~base:Reg.RBP ~disp:(int 7000 - 4000) ())
    | 2 ->
        `M (Insn.mem ~base:Reg.RBP ~index:(Reg.R12, scale ())
              ~disp:(int 200 - 100) ())
    | 3 ->
        `M (Insn.mem ~index:(Reg.R12, scale ())
              ~disp:(data_base + int 4000) ())
    | 4 -> `M (Insn.mem ~base:Reg.RSP ~disp:(-8 - int 120) ())
    | _ -> `Rip (data_base + int (data_size - 8))
  in
  (* RIP-relative displacements count from the end of the instruction,
     whose length does not depend on the displacement. *)
  let ins_with_mem f =
    match mem_access () with
    | `M m -> Asm.ins asm (f m)
    | `Rip target ->
        let len = Encode.length (f (Insn.rip_mem 0)) in
        Asm.ins asm (f (Insn.rip_mem (target - (Asm.here asm + len))))
  in
  (* An address computation only: any register may be base or index. *)
  let any_mem () =
    let index =
      match pick rand all_regs with
      | Reg.RSP -> None
      | r -> if int 3 = 0 then None else Some (r, scale ())
    in
    if int 5 = 0 then Insn.rip_mem (int 100000 - 50000)
    else
      Insn.mem ?base:(if int 4 = 0 then None else Some (pick rand all_regs))
        ?index ~disp:(Random.State.bits rand - (1 lsl 29)) ()
  in
  let depth = ref 0 in
  Array.iter
    (fun r -> Asm.ins asm (Insn.Movabs (r, Random.State.int64 rand Int64.max_int)))
    free_regs;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.R12, Insn.Imm (int 16)));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RBP, Insn.Imm data_mid));
  (* [skipped]: inside a forward branch, which may or may not run it, so
     no stack traffic (the pushes and pops must balance) and no nested
     branch. *)
  let rec one ~skipped () =
    match int 24 with
    | (18 | 22) when skipped -> one ~skipped ()
    | choice -> (
    let sz = size () in
    match choice with
    | 0 -> Asm.ins asm (Insn.Mov (sz, Insn.Reg (free ()), Insn.Reg (pick rand all_regs)))
    | 1 -> Asm.ins asm (Insn.Mov (sz, Insn.Reg (free ()), Insn.Imm (imm sz)))
    | 2 -> let r = free () in ins_with_mem (fun m -> Insn.Mov (sz, Insn.Reg r, Insn.Mem m))
    | 3 -> let r = pick rand all_regs in ins_with_mem (fun m -> Insn.Mov (sz, Insn.Mem m, Insn.Reg r))
    | 4 -> let v = imm sz in ins_with_mem (fun m -> Insn.Mov (sz, Insn.Mem m, Insn.Imm v))
    | 5 -> Asm.ins asm (Insn.Movabs (free (), Random.State.int64 rand Int64.max_int))
    | 6 -> Asm.ins asm (Insn.Lea (free (), any_mem ()))
    | 7 | 8 | 9 | 10 -> (
        let op =
          pick rand
            [| Insn.Add; Insn.Adc; Insn.Or; Insn.And; Insn.Sub; Insn.Sbb;
               Insn.Xor; Insn.Cmp; Insn.Test |]
        in
        match (op, int 5) with
        | _, 0 -> Asm.ins asm (Insn.Alu (op, sz, Insn.Reg (free ()), Insn.Reg (pick rand all_regs)))
        | _, 1 -> Asm.ins asm (Insn.Alu (op, sz, Insn.Reg (free ()), Insn.Imm (imm sz)))
        | Insn.Test, 2 | _, 3 ->
            let r = pick rand all_regs in
            ins_with_mem (fun m -> Insn.Alu (op, sz, Insn.Mem m, Insn.Reg r))
        | _, 2 ->
            let r = free () in
            ins_with_mem (fun m -> Insn.Alu (op, sz, Insn.Reg r, Insn.Mem m))
        | _ ->
            let v = imm sz in
            ins_with_mem (fun m -> Insn.Alu (op, sz, Insn.Mem m, Insn.Imm v)))
    | 11 ->
        let r = free () in
        if int 2 = 0 then Asm.ins asm (Insn.Imul (r, Insn.Reg (pick rand all_regs)))
        else ins_with_mem (fun m -> Insn.Imul (r, Insn.Mem m))
    | 12 ->
        let r = free () in
        let mk src = if int 2 = 0 then Insn.Movzx (r, src) else Insn.Movsx (r, src) in
        if int 2 = 0 then Asm.ins asm (mk (Insn.Reg (pick rand all_regs)))
        else ins_with_mem (fun m -> mk (Insn.Mem m))
    | 13 ->
        let c = cc () in
        if int 2 = 0 then Asm.ins asm (Insn.Setcc (c, Insn.Reg (free ())))
        else ins_with_mem (fun m -> Insn.Setcc (c, Insn.Mem m))
    | 14 ->
        let c = cc () and r = free () in
        if int 2 = 0 then Asm.ins asm (Insn.Cmov (c, r, Insn.Reg (pick rand all_regs)))
        else ins_with_mem (fun m -> Insn.Cmov (c, r, Insn.Mem m))
    | 15 ->
        let mk dst =
          match int 4 with
          | 0 -> Insn.Neg (sz, dst)
          | 1 -> Insn.Not (sz, dst)
          | 2 -> Insn.Inc (sz, dst)
          | _ -> Insn.Dec (sz, dst)
        in
        if int 2 = 0 then Asm.ins asm (mk (Insn.Reg (free ())))
        else ins_with_mem (fun m -> mk (Insn.Mem m))
    | 16 | 17 ->
        let sh = pick rand [| Insn.Shl; Insn.Shr; Insn.Sar |] in
        let n = if int 3 = 0 then int 256 else int 8 in
        if int 2 = 0 then Asm.ins asm (Insn.Shift (sh, sz, Insn.Reg (free ()), n))
        else ins_with_mem (fun m -> Insn.Shift (sh, sz, Insn.Mem m, n))
    | 18 ->
        if !depth > 0 && int 2 = 0 then begin
          decr depth;
          Asm.ins asm (if int 4 = 0 then Insn.Popfq else Insn.Pop (free ()))
        end
        else begin
          incr depth;
          Asm.ins asm
            (if int 4 = 0 then Insn.Pushfq else Insn.Push (pick rand all_regs))
        end
    | 19 -> Asm.ins asm (if int 4 = 0 then Insn.Endbr64 else Insn.Nop (1 + int 15))
    | 20 -> Asm.ins asm (Insn.Int (pick rand [| 0x50; 0x50; 0x53 |]))
    | 21 ->
        (* A C string from the data pages; from the last bytes it may run
           into the unmapped page after them. *)
        Asm.ins asm (Insn.Lea (Reg.RDI, Insn.mem ~base:Reg.RBP ~disp:(int 4460 - 300) ()));
        Asm.ins asm (Insn.Int 0x52)
    | 22 ->
        (* A forward branch over the next one or two instructions. *)
        let skip = Asm.fresh_label asm "skip" in
        if int 3 = 0 then Asm.jmp_short asm skip else Asm.jcc_short asm (cc ()) skip;
        one ~skipped:true ();
        if int 2 = 0 then one ~skipped:true ();
        Asm.place asm skip
    | _ -> Asm.ins asm (Insn.Mov (sz, Insn.Reg (free ()), Insn.Reg (free ()))))
  in
  for _ = 1 to random_length do
    one ~skipped:false ()
  done;
  for _ = 1 to !depth do
    Asm.ins asm (Insn.Pop (free ()))
  done;
  (* Every register and the flags into the data, then the data out. *)
  Asm.ins asm Insn.Pushfq;
  Asm.ins asm (Insn.Pop Reg.RAX);
  Array.iteri
    (fun i r ->
      Asm.ins asm
        (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~disp:(data_base + (8 * i)) ()), Insn.Reg r)))
    all_regs;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Imm 1));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RSI, Insn.Imm data_base));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Imm data_size));
  Asm.ins asm Insn.Syscall;
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 60));
  Asm.ins asm (Insn.Mov (Insn.Q, Insn.Reg Reg.RDI, Insn.Reg Reg.RBX));
  Asm.ins asm Insn.Syscall;
  let code = Asm.assemble asm in
  (* Data bytes are random, about one in sixteen zero (a C string end);
     in one program of eight the second page holds no zero at all, so a
     print from its end runs into the unmapped page. *)
  let dense = int 8 = 0 in
  let data =
    Bytes.init data_size (fun i ->
        if int 16 = 0 && not (dense && i >= 4096) then '\000'
        else Char.chr (1 + int 255))
  in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:code_base in
  let segment vaddr prot content =
    ignore
      (Elf_file.add_segment elf
         { Elf_file.ptype = Elf_file.Load; prot; vaddr; offset = 0;
           filesz = 0; memsz = Bytes.length content; align = 4096 }
         ~content)
  in
  segment code_base Elf_file.prot_rx code;
  segment data_base Elf_file.prot_rw data;
  elf

(* The programs run as their own trace original: every instruction is a
   boundary, so the trace hash folds in each one's register file. *)
let random () =
  let rand = Random.State.make [| random_seed |] in
  for i = 1 to random_programs do
    let elf = random_program rand in
    emu_run (Printf.sprintf "random/%03d" i) ~original:elf elf
  done

let () =
  (match Sys.argv with
  | [| _ |] -> ()
  | [| _; "--verify" |] -> mode := Verify
  | [| _; "--trace" |] -> mode := Oracle
  | [| _; "--emu" |] -> mode := Emu
  | _ ->
      prerr_endline "usage: digests.exe [--verify | --trace | --emu]";
      exit 2);
  corpus ();
  robust ();
  fuzz ();
  tool ();
  served ();
  if !mode = Emu then random ()
