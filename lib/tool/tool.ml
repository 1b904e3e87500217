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

type patch =
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

type rule = { selector : Spec.selector; patch : patch }

let strip_reg_name s =
  if String.length s > 0 && s.[0] = '%' then String.sub s 1 (String.length s - 1)
  else s

let parse_arg src =
  let s = String.trim src in
  match s with
  | "" -> errf "empty call argument"
  | "asm" -> Trampoline.Arg_asm
  | "addr" -> Trampoline.Arg_addr
  | "instr" -> Trampoline.Arg_instr
  | "size" -> Trampoline.Arg_size
  | _ -> (
      match Reg.of_name (strip_reg_name s) with
      | Some r -> Trampoline.Arg_reg r
      | None -> (
          match int_of_string_opt s with
          | Some v -> Trampoline.Arg_int v
          | None ->
              errf
                "bad call argument %S (asm|addr|instr|size, a register, or \
                 an integer)"
                s))

let split_args src =
  let s = String.trim src in
  if s = "" then []
  else List.map parse_arg (String.split_on_char ',' s)

let parse_call src =
  (* call[:clean|:naked] NAME(ARG,...) — parentheses optional when the
     argument list is empty. *)
  let mode, rest =
    if String.length src > 0 && src.[0] = ':' then
      let rest = String.sub src 1 (String.length src - 1) in
      if String.length rest >= 5 && String.sub rest 0 5 = "clean" then
        (Trampoline.Clean, String.sub rest 5 (String.length rest - 5))
      else if String.length rest >= 5 && String.sub rest 0 5 = "naked" then
        (Trampoline.Naked, String.sub rest 5 (String.length rest - 5))
      else errf "bad call mode (call:clean or call:naked)"
    else (Trampoline.Clean, src)
  in
  let rest = String.trim rest in
  if rest = "" then errf "call needs a function name";
  match String.index_opt rest '(' with
  | None -> Call { mode; fn = rest; args = [] }
  | Some i ->
      let fn = String.trim (String.sub rest 0 i) in
      if fn = "" then errf "call needs a function name";
      let after = String.sub rest (i + 1) (String.length rest - i - 1) in
      let close =
        match String.rindex_opt after ')' with
        | Some j when String.trim (String.sub after (j + 1) (String.length after - j - 1)) = "" -> j
        | _ -> errf "unbalanced parentheses in call patch %S" rest
      in
      let args = split_args (String.sub after 0 close) in
      if List.length args > 6 then
        errf "call takes at most 6 arguments (the System V registers)";
      Call { mode; fn; args }

let parse_patch src =
  match String.trim src with
  | "print" -> Print
  | "count" -> Count
  | "trap" -> Trap
  | "empty" -> Empty
  | "lowfat" -> Lowfat
  | s when String.length s >= 4 && String.sub s 0 4 = "call" ->
      parse_call (String.sub s 4 (String.length s - 4))
  | s ->
      errf
        "unknown patch %S (print|count|trap|empty|lowfat|call[:clean|:naked] \
         FN(ARGS))"
        s

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
(* Fragment identity (the plan-cache spec key, DESIGN.md §14)           *)
(* ------------------------------------------------------------------ *)

let arg_key = function
  | Trampoline.Arg_int v -> string_of_int v
  | Trampoline.Arg_addr -> "addr"
  | Trampoline.Arg_size -> "size"
  | Trampoline.Arg_asm -> "asm"
  | Trampoline.Arg_instr -> "instr"
  | Trampoline.Arg_reg r -> strip_reg_name (Reg.name64 r)

let patch_key = function
  | Print -> "print"
  | Count -> "count"
  | Trap -> "trap"
  | Empty -> "empty"
  | Lowfat -> "lowfat"
  | Call { mode; fn; args } ->
      Printf.sprintf "call:%s %s(%s)"
        (match mode with Trampoline.Clean -> "clean" | Trampoline.Naked -> "naked")
        fn
        (String.concat "," (List.map arg_key args))

let fragment_for_range rules ~lo ~hi =
  (* Sound under first-match-wins for exactly the reason
     [Patchspec.fragment_for_range] is: a dropped rule provably matches no
     site in [lo, hi), so for every in-range site the surviving rules keep
     their relative order and the first match is unchanged. *)
  List.filter (fun r -> Spec.selector_may_match_in r.selector ~lo ~hi) rules

let fragment_key rules =
  String.concat ";"
    (List.map
       (fun r ->
         Printf.sprintf "%s=>%s"
           (Format.asprintf "%a" Spec.pp_selector r.selector)
           (patch_key r.patch))
       rules)

let spec_key rules ~text_base ~lo ~len =
  fragment_key
    (fragment_for_range rules ~lo:(text_base + lo) ~hi:(text_base + lo + len))

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

let template_of rt patch (site : Frontend.site) =
  match patch with
  | Empty -> Trampoline.Empty
  | Count -> Trampoline.Counter
  | Trap -> Trampoline.Trap
  | Lowfat -> Trampoline.Lowfat_check_scratch rt.scratch
  | Print ->
      Trampoline.Print
        { text =
            Printf.sprintf "0x%x: %s" site.Frontend.addr
              (Insn.to_string site.Frontend.insn);
          scratch = rt.scratch }
  | Call { mode; fn; args } ->
      Trampoline.Call
        { target = resolve_fn rt fn;
          mode;
          args;
          scratch = rt.scratch;
          stack_top = rt.stack_top }

let to_rewriter_args rt rules =
  let first site = List.find_opt (fun r -> Spec.selects r.selector site) rules in
  ( (fun site -> first site <> None),
    fun site ->
      match first site with
      | Some r -> template_of rt r.patch site
      | None -> Trampoline.Empty )

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

type result = { rewrite : Rewriter.result; runtime : runtime }

let run ?options ?obs ?jobs ?plan ?disasm_from ?frontend elf rules =
  if rules = [] then errf "no rules (need at least one -M/-P pair)";
  let rt = inject elf in
  let select, template = to_rewriter_args rt rules in
  let rewrite =
    Rewriter.run ?options ?obs ?jobs ?plan ?disasm_from ?frontend rt.augmented
      ~select ~template
  in
  { rewrite; runtime = rt }
