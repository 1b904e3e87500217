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
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> errf "%s" m

let range_selector (lo, hi) =
  Spec.And (Spec.Addr_cmp (`Ge, lo), Spec.Addr_cmp (`Lt, hi))

let parse_match ?(read_file = default_read_file) src =
  (* A [#] comment runs to the end of its line, as in a spec: blank it,
     keeping every column, before the [;] split can end it early. *)
  let code =
    let in_comment = ref false in
    String.map
      (fun c ->
        if c = '\n' then (in_comment := false; c)
        else if c = '#' || !in_comment then (in_comment := true; ' ')
        else c)
      src
  in
  let selectors = ref [] and excluded = ref [] in
  let start = ref 0 in
  List.iter
    (fun piece ->
      let off = !start in
      start := off + String.length piece + 1;
      let trimmed = String.trim piece in
      if trimmed <> "" then
        if String.starts_with ~prefix:"exclude " trimmed then
          let file = String.trim (String.sub trimmed 8 (String.length trimmed - 8)) in
          excluded := !excluded @ parse_csv ~file (read_file file)
        else
          (* Parse the piece where it stands — [code] with every other
             byte blanked — so an error names its line and column in
             [src]. *)
          let only =
            String.mapi
              (fun i c ->
                if (i >= off && i < off + String.length piece) || c = '\n'
                then c
                else ' ')
              code
          in
          selectors := Spec.parse_selector only :: !selectors)
    (String.split_on_char ';' code);
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
  { selector = parse_match ?read_file m; patch = Spec.parse_patch p }

(* ------------------------------------------------------------------ *)
(* The injected instrumentation runtime                                 *)
(* ------------------------------------------------------------------ *)

type pages = {
  data_base : int;
  scratch : int;
  counter_cell : int;
  record_cell : int;
  stack_top : int;
  code_base : int;
  fns : (string * int) list;
}

type runtime = {
  augmented : Elf_file.t;
  pages : pages option;
  instr_ranges : (int * int) list;
}

(* The rewrite input of a rule list that keeps no state in the runtime:
   the file itself. *)
let bare elf = { augmented = elf; pages = None; instr_ranges = [] }

let page = 0x1000

(* RIP-relative access to a data-page cell (always disp32, so the length
   probe with displacement 0 is exact). *)
let riprel asm ~addr make =
  let len = E9_x86.Encode.length (make (Insn.rip_mem 0)) in
  Asm.ins asm (make (Insn.rip_mem (addr - (Asm.here asm + len))))

(* The data page sits one 64 KiB guard above the highest segment, the
   code page right after it. *)
let data_page (elf : Elf_file.t) =
  let top =
    List.fold_left
      (fun a (s : Elf_file.segment) -> max a (s.vaddr + s.memsz))
      0 elf.segments
  in
  ((top + page - 1) / page * page) + 0x10000

let inject elf =
  (* The two pages add two program headers; the table cannot move, so it
     must still end before the first content byte. *)
  let phnum = List.length elf.Elf_file.segments + 2 in
  (match Elf_file.phdr_overlap elf ~phnum with
  | Some off ->
      errf
        "the instrumentation runtime's program headers (%d in all) would \
         overwrite content at file offset 0x%x"
        phnum off
  | None -> ());
  let elf = Elf_file.copy elf in
  let data_base = data_page elf in
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
     from this image verify against the image {!runtime_in} rebuilds
     from the original file. *)
  { augmented = Elf_file.of_bytes (Elf_file.to_bytes elf);
    pages =
      Some
        { data_base;
          scratch = data_base;
          counter_cell;
          record_cell;
          stack_top = data_base + page;
          code_base;
          fns = [ ("counter", counter_fn); ("record", record_fn) ] };
    instr_ranges = [ (data_base, data_base + page) ] }

(* The two pages [inject original] adds, as program headers and bytes:
   a rewrite of the augmented image keeps both verbatim. Only a
   rewritten file with loads at both page addresses is worth an
   injection to compare against; any other was rewritten from
   [original] itself. *)
let runtime_in ~original rewritten =
  let loaded a =
    List.exists
      (fun (s : Elf_file.segment) -> s.ptype = Elf_file.Load && s.vaddr = a)
      rewritten.Elf_file.segments
  in
  let data_base = data_page original in
  if not (loaded data_base && loaded (data_base + page)) then bare original
  else
    let rt = inject original in
    let bytes (e : Elf_file.t) (s : Elf_file.segment) =
      if s.offset + s.filesz > E9_bits.Buf.length e.data then None
      else Some (E9_bits.Buf.sub e.data ~pos:s.offset ~len:s.filesz)
    in
    let injected (s : Elf_file.segment) =
      s.vaddr = data_base || s.vaddr = data_base + page
    in
    let carried (s : Elf_file.segment) =
      List.mem s rewritten.Elf_file.segments
      && bytes rt.augmented s = bytes rewritten s
    in
    if List.for_all carried (List.filter injected rt.augmented.segments) then
      rt
    else bare original

let resolve_fn pages fn =
  match List.assoc_opt fn pages.fns with
  | Some addr -> addr
  | None -> (
      match int_of_string_opt fn with
      | Some addr -> addr
      | None ->
          errf "unknown instrumentation function %S (injected: %s)" fn
            (String.concat " " (List.map fst pages.fns)))

(* ------------------------------------------------------------------ *)
(* Lowering to rewriter arguments                                       *)
(* ------------------------------------------------------------------ *)

(* A patch keeps state in the runtime when it is [lowfat] or [print]
   (%rdi parks in the scratch slot) or a [call] (functions, cells,
   private stack). *)
let needs_runtime rules =
  List.exists
    (fun r ->
      match r.patch with
      | Lowfat | Print | Call _ -> true
      | Count | Trap | Empty -> false)
    rules

(* The one decision of what a rule list rewrites. *)
let rewrite_input elf rules =
  if needs_runtime rules then inject elf else bare elf

(* The one lowering of a patch. The runtime-keeping patches lower
   against the runtime's pages; [rewrite_input] injects them whenever
   [needs_runtime] says so, and a rewrite input without them is refused
   here, before any site is lowered. *)
let template_of rt patch =
  match (patch, rt.pages) with
  | Empty, _ -> fun _ -> Trampoline.Empty
  | Count, _ -> fun _ -> Trampoline.Counter
  | Trap, _ -> fun _ -> Trampoline.Trap
  | (Lowfat | Print | Call _), None ->
      invalid_arg
        (Format.asprintf "Tool.lower: patch '%a' needs the runtime"
           Spec.pp_patch patch)
  | Lowfat, Some p -> fun _ -> Trampoline.Lowfat_check_scratch p.scratch
  | Print, Some p ->
      fun (site : Frontend.site) ->
        Trampoline.Print
          { text =
              Printf.sprintf "0x%x: %s" site.Frontend.addr
                (Insn.to_string site.Frontend.insn);
            scratch = p.scratch }
  | Call { mode; fn; args }, Some p ->
      fun _ ->
        Trampoline.Call
          { target = resolve_fn p fn;
            mode;
            args;
            scratch = p.scratch;
            stack_top = p.stack_top }

let lower rt rules =
  List.iter
    (fun r -> ignore (template_of rt r.patch : Frontend.site -> _))
    rules;
  ( (fun site -> Spec.patch_for rules site <> None),
    fun site ->
      match Spec.patch_for rules site with
      | Some p -> template_of rt p site
      | None -> Trampoline.Empty )

let to_rewriter_args = lower

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

type result = { rewrite : Rewriter.result; runtime : runtime }

let run ?options ?obs ?fault ?holes elf rules =
  let rt = rewrite_input elf rules in
  let select, template = lower rt rules in
  let rewrite =
    Rewriter.run ?options ?obs ?fault ?holes rt.augmented ~select ~template
  in
  { rewrite; runtime = rt }

let size_pct elf (r : Rewriter.result) =
  Rewriter.size_pct
    { r with Rewriter.input_size = Elf_file.serialized_size elf }
