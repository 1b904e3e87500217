module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Asm = E9_x86.Asm
module Spec = E9_spec.Patchspec
module Trampoline = E9_core.Trampoline
module Rewriter = E9_core.Rewriter

exception Error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* The patch language                                                   *)
(* ------------------------------------------------------------------ *)

type patch = Spec.patch =
  | Print
  | Count
  | Trap
  | Empty
  | Lowfat
  | Call of {
      mode : Trampoline.call_mode;
      fn : string;
      args : Trampoline.call_arg list;
    }

type rule = Spec.rule = { selector : Spec.selector; patch : patch }

let parse_patch src =
  try Spec.parse_patch src
  with Spec.Parse_error { message; _ } -> raise (Error message)

(* ------------------------------------------------------------------ *)
(* The match language                                                   *)
(* ------------------------------------------------------------------ *)

let parse_csv ~file content =
  let ranges = ref [] in
  List.iteri
    (fun i line ->
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ',' line with
        | [ lo; hi ] -> (
            match
              (int_of_string_opt (String.trim lo),
               int_of_string_opt (String.trim hi))
            with
            | Some lo, Some hi when lo < hi -> ranges := (lo, hi) :: !ranges
            | Some lo, Some hi ->
                errf "%s:%d: empty range 0x%x,0x%x" file (i + 1) lo hi
            | _ -> errf "%s:%d: expected LO,HI addresses" file (i + 1))
        | _ -> errf "%s:%d: expected LO,HI addresses" file (i + 1))
    (String.split_on_char '\n' content);
  List.rev !ranges

let default_read_file path =
  let ic = try open_in_bin path with Sys_error m -> errf "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let range_selector (lo, hi) =
  Spec.And (Spec.Addr_cmp (`Ge, lo), Spec.Addr_cmp (`Lt, hi))

let parse_match ?(read_file = default_read_file) src =
  let selectors = ref [] and excluded = ref [] in
  List.iter
    (fun piece ->
      let piece = String.trim piece in
      if piece <> "" then
        if
          String.length piece > 8 && String.sub piece 0 8 = "exclude "
        then
          let file = String.trim (String.sub piece 8 (String.length piece - 8)) in
          excluded := !excluded @ parse_csv ~file (read_file file)
        else selectors := Spec.parse_selector piece :: !selectors)
    (String.split_on_char ';' src);
  let base =
    match List.rev !selectors with
    | [] -> errf "empty match %S" src
    | s :: rest -> List.fold_left (fun a b -> Spec.And (a, b)) s rest
  in
  match !excluded with
  | [] -> base
  | r :: rest ->
      let ranges =
        List.fold_left
          (fun a b -> Spec.Or (a, range_selector b))
          (range_selector r) rest
      in
      Spec.And (base, Spec.Not ranges)

let rule_of ?read_file ~m ~p () =
  { selector = parse_match ?read_file m; patch = parse_patch p }

(* ------------------------------------------------------------------ *)
(* The injected instrumentation runtime                                 *)
(* ------------------------------------------------------------------ *)

type runtime = {
  augmented : Elf_file.t;
  data_base : int;
  scratch : int;
  counter_cell : int;
  record_cell : int;
  stack_top : int;
  code_base : int;
  fns : (string * int) list;
  instr_ranges : (int * int) list;
}

let page = 0x1000

(* RIP-relative access to a data-page cell (always disp32, so the length
   probe with displacement 0 is exact). *)
let riprel asm ~addr make =
  let len = E9_x86.Encode.length (make (Insn.rip_mem 0)) in
  Asm.ins asm (make (Insn.rip_mem (addr - (Asm.here asm + len))))

let inject elf =
  let elf = Elf_file.copy elf in
  let top =
    List.fold_left
      (fun a (s : Elf_file.segment) -> max a (s.Elf_file.vaddr + s.Elf_file.memsz))
      0 elf.Elf_file.segments
  in
  let data_base = ((top + page - 1) / page * page) + 0x10000 in
  let code_base = data_base + page in
  let counter_cell = data_base + 8 in
  let record_cell = data_base + 16 in
  (* The two stdlib instrumentation functions. Both clobber only memory
     cells in the private data page plus the flags — which the Clean call
     bracket saves and restores; Naked callers accept the flag clobber. *)
  let asm = Asm.create ~base:code_base in
  let counter_fn = Asm.here asm in
  riprel asm ~addr:counter_cell (fun m -> Insn.Inc (Insn.Q, Insn.Mem m));
  Asm.ins asm Insn.Ret;
  let record_fn = Asm.here asm in
  List.iter
    (fun r ->
      riprel asm ~addr:record_cell (fun m ->
          Insn.Alu (Insn.Add, Insn.Q, Insn.Mem m, Insn.Reg r)))
    [ Reg.RDI; Reg.RSI; Reg.RDX ];
  Asm.ins asm Insn.Ret;
  let code = Asm.assemble asm in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rw;
         vaddr = data_base;
         offset = 0;
         filesz = 0;
         memsz = page;
         align = page }
       ~content:(Bytes.make page '\000'));
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rx;
         vaddr = code_base;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = page }
       ~content:code);
  (* As its file reads back (real header bytes), so outputs rewritten
     from this image verify against the [--emit-augmented] file too. *)
  { augmented = Elf_file.of_bytes (Elf_file.to_bytes elf);
    data_base;
    scratch = data_base;
    counter_cell;
    record_cell;
    stack_top = data_base + page;
    code_base;
    fns = [ ("counter", counter_fn); ("record", record_fn) ];
    instr_ranges = [ (data_base, data_base + page) ] }

let resolve_fn rt fn =
  match List.assoc_opt fn rt.fns with
  | Some addr -> addr
  | None -> (
      match int_of_string_opt fn with
      | Some addr -> addr
      | None ->
          errf "unknown instrumentation function %S (injected: %s)" fn
            (String.concat " " (List.map fst rt.fns)))

(* ------------------------------------------------------------------ *)
(* Lowering to rewriter arguments                                       *)
(* ------------------------------------------------------------------ *)

(* The one lowering of a patch. Without a runtime (a plain patch spec)
   [lowfat] pushes its scratch register on the guest stack; with one it
   parks it in the runtime's scratch slot, which keeps the guest stack
   trace-transparent. [print] and [call] need the runtime's log, cells
   and private stack, so they are refused without one — here, before any
   site is lowered. *)
let template_of ?runtime patch =
  match (patch, runtime) with
  | Empty, _ -> fun _ -> Trampoline.Empty
  | Count, _ -> fun _ -> Trampoline.Counter
  | Trap, _ -> fun _ -> Trampoline.Trap
  | Lowfat, None -> fun _ -> Trampoline.Lowfat_check
  | Lowfat, Some rt -> fun _ -> Trampoline.Lowfat_check_scratch rt.scratch
  | (Print | Call _), None ->
      errf "patch '%s' needs the instrumentation runtime (use tool, not patch)"
        (Format.asprintf "%a" Spec.pp_patch patch)
  | Print, Some rt ->
      fun (site : Frontend.site) ->
        Trampoline.Print
          { text =
              Printf.sprintf "0x%x: %s" site.Frontend.addr
                (Insn.to_string site.Frontend.insn);
            scratch = rt.scratch }
  | Call { mode; fn; args }, Some rt ->
      fun _ ->
        Trampoline.Call
          { target = resolve_fn rt fn;
            mode;
            args;
            scratch = rt.scratch;
            stack_top = rt.stack_top }

let lower ?runtime rules =
  List.iter
    (fun r -> ignore (template_of ?runtime r.patch : Frontend.site -> _))
    rules;
  ( (fun site -> Spec.patch_for rules site <> None),
    fun site ->
      match Spec.patch_for rules site with
      | Some p -> template_of ?runtime p site
      | None -> Trampoline.Empty )

let to_rewriter_args rt rules = lower ~runtime:rt rules

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

type result = { rewrite : Rewriter.result; runtime : runtime }

let run ?options ?obs ?jobs ?disasm_from ?frontend elf rules =
  if rules = [] then errf "no rules (need at least one -M/-P pair)";
  let rt = inject elf in
  let select, template = to_rewriter_args rt rules in
  let rewrite =
    Rewriter.run ?options ?obs ?jobs ?disasm_from ?frontend rt.augmented
      ~select ~template
  in
  { rewrite; runtime = rt }
