module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Classify = E9_x86.Classify
module Trampoline = E9_core.Trampoline

type cmp = [ `Ge | `Le | `Eq | `Lt | `Gt | `Ne ]
type op_kind = [ `Reg | `Imm | `Mem ]

type defattr =
  | D_target
  | D_op of int
  | D_op_reg of int
  | D_op_imm of int
  | D_op_mem of int

type selector =
  | Jumps
  | Heap_writes
  | Calls
  | Returns
  | All
  | Mnemonic of string
  | Size_cmp of cmp * int
  | Addr_cmp of cmp * int
  | Target_cmp of cmp * int
  | Op_type of int * op_kind
  | Op_reg of int * Reg.t
  | Op_imm_cmp of int * cmp * int
  | Reg_used of Reg.t
  | Defined of defattr
  | And of selector * selector
  | Or of selector * selector
  | Not of selector

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

type rule = { selector : selector; patch : patch }
type t = rule list

exception Parse_error of { line : int; col : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | KW of string  (* keywords and identifiers *)
  | NUM of int
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | DOT
  | OP of string  (* >=, <=, =, <, >, != *)
  | SEP  (* newline or ; — rule separator *)
  | PATCH of string  (* the raw text of a [with] clause *)
  | EOF

type lexed = { tok : token; tline : int; tcol : int }

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let lex source =
  let n = String.length source in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let push tok tline tcol = toks := { tok; tline; tcol } :: !toks in
  let err message = raise (Parse_error { line = !line; col = !col; message }) in
  let advance () =
    (if source.[!i] = '\n' then begin
       line := !line + 1;
       col := 1
     end
     else col := !col + 1);
    incr i
  in
  let digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = source.[!i] in
    let tline = !line and tcol = !col in
    if c = '\n' || c = ';' then begin
      push SEP tline tcol;
      advance ()
    end
    else if c = ' ' || c = '\t' || c = '\r' then advance ()
    else if c = '#' then
      while !i < n && source.[!i] <> '\n' do
        advance ()
      done
    else if c = '(' then begin
      push LPAREN tline tcol;
      advance ()
    end
    else if c = ')' then begin
      push RPAREN tline tcol;
      advance ()
    end
    else if c = '[' then begin
      push LBRACKET tline tcol;
      advance ()
    end
    else if c = ']' then begin
      push RBRACKET tline tcol;
      advance ()
    end
    else if c = '.' then begin
      push DOT tline tcol;
      advance ()
    end
    else if c = '>' || c = '<' || c = '=' || c = '!' then begin
      let two = !i + 1 < n && source.[!i + 1] = '=' in
      if c = '!' && not two then err "expected != ";
      (* [==] is an alias of [=]; both lex to OP "=". *)
      let op =
        if not two then String.make 1 c
        else if c = '=' then "="
        else String.make 1 c ^ "="
      in
      push (OP op) tline tcol;
      advance ();
      if two then advance ()
    end
    else if digit c || (c = '-' && !i + 1 < n && digit source.[!i + 1]) then begin
      let start = !i in
      advance ();
      while !i < n && is_ident_char source.[!i] do
        advance ()
      done;
      let text = String.sub source start (!i - start) in
      match int_of_string_opt text with
      | Some v -> push (NUM v) tline tcol
      | None -> raise (Parse_error { line = tline; col = tcol;
                                     message = "bad number: " ^ text })
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do
        advance ()
      done;
      let word = String.sub source start (!i - start) in
      push (KW word) tline tcol;
      (* A [with] clause is a patch in the [-P] language, whose call
         syntax ([call:clean f(addr, 3)]) is not made of selector tokens:
         take its text raw, up to the end of the rule. *)
      if word = "with" then begin
        while !i < n && (source.[!i] = ' ' || source.[!i] = '\t') do
          advance ()
        done;
        let pline = !line and pcol = !col and start = !i in
        while
          !i < n && not (List.mem source.[!i] [ '\n'; ';'; '#' ])
        do
          advance ()
        done;
        let text = String.trim (String.sub source start (!i - start)) in
        push (PATCH text) pline pcol
      end
    end
    else err (Printf.sprintf "unexpected character %C" c)
  done;
  push EOF !line !col;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent; [or] < [and] < [not]/atom)               *)
(* ------------------------------------------------------------------ *)

type parser_state = { mutable toks : lexed list }

let peek ps = List.hd ps.toks

let next ps =
  let t = List.hd ps.toks in
  (match ps.toks with _ :: rest when rest <> [] -> ps.toks <- rest | _ -> ());
  t

let fail (l : lexed) message =
  raise (Parse_error { line = l.tline; col = l.tcol; message })

let expect_kw ps kw =
  let t = next ps in
  match t.tok with
  | KW k when String.equal k kw -> ()
  | _ -> fail t (Printf.sprintf "expected '%s'" kw)

let parse_num ps =
  let t = next ps in
  match t.tok with NUM v -> v | _ -> fail t "expected a number"

let parse_cmp ps what : cmp =
  let t = next ps in
  match t.tok with
  | OP ">=" -> `Ge
  | OP "<=" -> `Le
  | OP "=" -> `Eq
  | OP "<" -> `Lt
  | OP ">" -> `Gt
  | OP "!=" -> `Ne
  | _ -> fail t (Printf.sprintf "expected a comparison after '%s'" what)

let parse_reg ps what =
  let t = next ps in
  match t.tok with
  | KW name -> (
      match Reg.of_name name with
      | Some r -> r
      | None -> fail t (Printf.sprintf "unknown register '%s'" name))
  | _ -> fail t (Printf.sprintf "expected a register name after '%s'" what)

(* op[i] — the index, brackets already announced by the [op] keyword. *)
let parse_op_index ps =
  let l = next ps in
  if l.tok <> LBRACKET then fail l "expected '[' after 'op'";
  let i = parse_num ps in
  let r = next ps in
  if r.tok <> RBRACKET then fail r "expected ']'";
  if i < 0 then fail l "operand index must be non-negative";
  i

let rec parse_sel ps = parse_or ps

and parse_or ps =
  let left = parse_and ps in
  match (peek ps).tok with
  | KW "or" ->
      ignore (next ps);
      Or (left, parse_or ps)
  | _ -> left

and parse_and ps =
  let left = parse_atom ps in
  match (peek ps).tok with
  | KW "and" ->
      ignore (next ps);
      And (left, parse_and ps)
  | _ -> left

and parse_atom ps =
  let t = next ps in
  match t.tok with
  | KW "not" -> Not (parse_atom ps)
  | LPAREN ->
      let s = parse_sel ps in
      let c = next ps in
      if c.tok <> RPAREN then fail c "expected ')'";
      s
  | KW "jumps" -> Jumps
  | KW "heap-writes" -> Heap_writes
  | KW "calls" -> Calls
  | KW "returns" -> Returns
  | KW "all" -> All
  | KW "address" -> (
      (* sugar for [addr == N] *)
      let v = next ps in
      match v.tok with
      | NUM a -> Addr_cmp (`Eq, a)
      | _ -> fail v "expected an address after 'address'")
  | KW "mnemonic" -> (
      let v = next ps in
      match v.tok with
      | KW name -> Mnemonic name
      | _ -> fail v "expected a mnemonic name")
  | KW "size" ->
      let c = parse_cmp ps "size" in
      Size_cmp (c, parse_num ps)
  | KW "addr" ->
      let c = parse_cmp ps "addr" in
      Addr_cmp (c, parse_num ps)
  | KW "target" ->
      let c = parse_cmp ps "target" in
      Target_cmp (c, parse_num ps)
  | KW "uses" -> Reg_used (parse_reg ps "uses")
  | KW "op" -> (
      let i = parse_op_index ps in
      let d = next ps in
      if d.tok <> DOT then fail d "expected '.' after 'op[i]'";
      let f = next ps in
      match f.tok with
      | KW "type" -> (
          let c = parse_cmp ps "op[i].type" in
          let k = next ps in
          let kind =
            match k.tok with
            | KW "reg" -> `Reg
            | KW "imm" -> `Imm
            | KW "mem" -> `Mem
            | _ -> fail k "expected reg, imm or mem"
          in
          match c with
          | `Eq -> Op_type (i, kind)
          | `Ne -> Not (Op_type (i, kind))
          | _ -> fail k "op[i].type supports only == and !=")
      | KW "reg" -> (
          let c = parse_cmp ps "op[i].reg" in
          let r = parse_reg ps "op[i].reg" in
          match c with
          | `Eq -> Op_reg (i, r)
          | `Ne -> Not (Op_reg (i, r))
          | _ -> fail f "op[i].reg supports only == and !=")
      | KW "imm" ->
          let c = parse_cmp ps "op[i].imm" in
          Op_imm_cmp (i, c, parse_num ps)
      | _ -> fail f "expected type, reg or imm after 'op[i].'")
  | KW "defined" -> (
      let l = next ps in
      if l.tok <> LPAREN then fail l "expected '(' after 'defined'";
      let a = next ps in
      let attr =
        match a.tok with
        | KW "target" -> D_target
        | KW "op" -> (
            let i = parse_op_index ps in
            match (peek ps).tok with
            | DOT -> (
                ignore (next ps);
                let f = next ps in
                match f.tok with
                | KW "reg" -> D_op_reg i
                | KW "imm" -> D_op_imm i
                | KW "mem" -> D_op_mem i
                | _ -> fail f "expected reg, imm or mem after 'op[i].'")
            | _ -> D_op i)
        | _ -> fail a "expected target or op[i] inside defined(...)"
      in
      let r = next ps in
      if r.tok <> RPAREN then fail r "expected ')'";
      Defined attr)
  | KW other -> fail t (Printf.sprintf "unknown selector '%s'" other)
  | _ -> fail t "expected a selector"

(* ------------------------------------------------------------------ *)
(* Patches (the [-P] language)                                         *)
(* ------------------------------------------------------------------ *)

let strip_reg_name s =
  if String.length s > 0 && s.[0] = '%' then String.sub s 1 (String.length s - 1)
  else s

(* [src] is the text of one patch; errors are reported at [line]/[col],
   where the text starts. *)
let parse_patch_at ~line ~col src =
  let errf fmt =
    Printf.ksprintf (fun message -> raise (Parse_error { line; col; message })) fmt
  in
  let parse_arg src =
    match String.trim src with
    | "" -> errf "empty call argument"
    | "asm" -> Trampoline.Arg_asm
    | "addr" -> Trampoline.Arg_addr
    | "instr" -> Trampoline.Arg_instr
    | "size" -> Trampoline.Arg_size
    | s -> (
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
  in
  (* call[:clean|:naked] NAME(ARG,...) — parentheses optional when the
     argument list is empty. *)
  let parse_call src =
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
          | Some j
            when String.trim
                   (String.sub after (j + 1) (String.length after - j - 1))
                 = "" ->
              j
          | _ -> errf "unbalanced parentheses in call patch %S" rest
        in
        let args =
          match String.trim (String.sub after 0 close) with
          | "" -> []
          | s -> List.map parse_arg (String.split_on_char ',' s)
        in
        if List.length args > 6 then
          errf "call takes at most 6 arguments (the System V registers)";
        Call { mode; fn; args }
  in
  match String.trim src with
  | "print" -> Print
  (* [counter] is the patch-spec spelling of [count]; both are published. *)
  | "count" | "counter" -> Count
  | "trap" -> Trap
  | "empty" -> Empty
  | "lowfat" -> Lowfat
  | s when String.length s >= 4 && String.sub s 0 4 = "call" ->
      parse_call (String.sub s 4 (String.length s - 4))
  | "" -> errf "expected a patch"
  | s ->
      errf
        "unknown patch %S (print|count|trap|empty|lowfat|call[:clean|:naked] \
         FN(ARGS))"
        s

let parse_patch src = parse_patch_at ~line:1 ~col:1 src

let parse_rule ps =
  expect_kw ps "patch";
  let selector = parse_sel ps in
  expect_kw ps "with";
  let t = next ps in
  match t.tok with
  | PATCH src ->
      { selector; patch = parse_patch_at ~line:t.tline ~col:t.tcol src }
  | _ -> fail t "expected a patch"

let parse source =
  let ps = { toks = lex source } in
  let rules = ref [] in
  let rec skip_seps () =
    match (peek ps).tok with
    | SEP ->
        ignore (next ps);
        skip_seps ()
    | _ -> ()
  in
  skip_seps ();
  while (peek ps).tok <> EOF do
    rules := parse_rule ps :: !rules;
    (match (peek ps).tok with
    | SEP | EOF -> skip_seps ()
    | _ -> fail (peek ps) "expected end of rule");
    skip_seps ()
  done;
  List.rev !rules

let parse_selector source =
  let ps = { toks = lex source } in
  let sel = parse_sel ps in
  (match (peek ps).tok with
  | EOF -> ()
  | SEP ->
      let rec seps () =
        match (peek ps).tok with
        | SEP ->
            ignore (next ps);
            seps ()
        | EOF -> ()
        | _ -> fail (peek ps) "expected end of expression"
      in
      seps ()
  | _ -> fail (peek ps) "expected end of expression");
  sel

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let mnemonic_of (i : Insn.t) =
  match i with
  | Insn.Mov _ | Insn.Movabs _ -> "mov"
  | Insn.Lea _ -> "lea"
  | Insn.Alu (Insn.Add, _, _, _) -> "add"
  | Insn.Alu (Insn.Adc, _, _, _) -> "adc"
  | Insn.Alu (Insn.Sbb, _, _, _) -> "sbb"
  | Insn.Alu (Insn.Or, _, _, _) -> "or"
  | Insn.Alu (Insn.And, _, _, _) -> "and"
  | Insn.Alu (Insn.Sub, _, _, _) -> "sub"
  | Insn.Alu (Insn.Xor, _, _, _) -> "xor"
  | Insn.Alu (Insn.Cmp, _, _, _) -> "cmp"
  | Insn.Alu (Insn.Test, _, _, _) -> "test"
  | Insn.Imul _ -> "imul"
  | Insn.Movzx _ -> "movzx"
  | Insn.Movsx _ -> "movsx"
  | Insn.Setcc _ -> "setcc"
  | Insn.Cmov _ -> "cmov"
  | Insn.Neg _ -> "neg"
  | Insn.Not _ -> "not"
  | Insn.Inc _ -> "inc"
  | Insn.Dec _ -> "dec"
  | Insn.Shift (Insn.Shl, _, _, _) -> "shl"
  | Insn.Shift (Insn.Shr, _, _, _) -> "shr"
  | Insn.Shift (Insn.Sar, _, _, _) -> "sar"
  | Insn.Push _ -> "push"
  | Insn.Pop _ -> "pop"
  | Insn.Pushfq -> "pushfq"
  | Insn.Popfq -> "popfq"
  | Insn.Call _ | Insn.Call_ind _ -> "call"
  | Insn.Ret -> "ret"
  | Insn.Jmp _ | Insn.Jmp_short _ | Insn.Jmp_ind _ -> "jmp"
  | Insn.Jcc _ | Insn.Jcc_short _ -> "jcc"
  | Insn.Nop _ -> "nop"
  | Insn.Endbr64 -> "endbr64"
  | Insn.Int3 -> "int3"
  | Insn.Int _ -> "int"
  | Insn.Syscall -> "syscall"
  | Insn.Ud2 -> "ud2"
  | Insn.Unknown _ -> "(bad)"

let cmp_int (c : cmp) a b =
  match c with
  | `Ge -> a >= b
  | `Le -> a <= b
  | `Eq -> a = b
  | `Lt -> a < b
  | `Gt -> a > b
  | `Ne -> a <> b

(* Branch target, where derivable without CFG recovery: direct jumps,
   conditional jumps and direct calls carry their destination in the
   encoding. Indirect branches have no static target — [Target_cmp] is
   false and [defined(target)] distinguishes the cases. *)
let target_of (site : Frontend.site) =
  match site.Frontend.insn with
  | Insn.Jmp rel | Insn.Jmp_short rel
  | Insn.Jcc (_, rel) | Insn.Jcc_short (_, rel)
  | Insn.Call rel ->
      Some (site.Frontend.addr + site.Frontend.len + rel)
  | _ -> None

let nth_operand (site : Frontend.site) i =
  List.nth_opt (Insn.operands site.Frontend.insn) i

let rec selects sel (site : Frontend.site) =
  match sel with
  | Jumps -> Classify.is_jump site.Frontend.insn
  | Heap_writes -> Classify.is_heap_write site.Frontend.insn
  | Calls -> (
      match site.Frontend.insn with
      | Insn.Call _ | Insn.Call_ind _ -> true
      | _ -> false)
  | Returns -> site.Frontend.insn = Insn.Ret
  | All -> true
  | Mnemonic m -> String.equal m (mnemonic_of site.Frontend.insn)
  | Size_cmp (c, n) -> cmp_int c site.Frontend.len n
  | Addr_cmp (c, n) -> cmp_int c site.Frontend.addr n
  | Target_cmp (c, n) -> (
      match target_of site with Some t -> cmp_int c t n | None -> false)
  | Op_type (i, k) -> (
      match nth_operand site i with
      | Some (Insn.Reg _) -> k = `Reg
      | Some (Insn.Imm _) -> k = `Imm
      | Some (Insn.Mem _) -> k = `Mem
      | None -> false)
  | Op_reg (i, r) -> (
      match nth_operand site i with
      | Some (Insn.Reg r') -> Reg.equal r r'
      | _ -> false)
  | Op_imm_cmp (i, c, n) -> (
      match nth_operand site i with
      | Some (Insn.Imm v) -> cmp_int c v n
      | _ -> false)
  | Reg_used r -> Insn.uses_reg site.Frontend.insn r
  | Defined D_target -> target_of site <> None
  | Defined (D_op i) -> nth_operand site i <> None
  | Defined (D_op_reg i) -> (
      match nth_operand site i with Some (Insn.Reg _) -> true | _ -> false)
  | Defined (D_op_imm i) -> (
      match nth_operand site i with Some (Insn.Imm _) -> true | _ -> false)
  | Defined (D_op_mem i) -> (
      match nth_operand site i with Some (Insn.Mem _) -> true | _ -> false)
  | And (a, b) -> selects a site && selects b site
  | Or (a, b) -> selects a site || selects b site
  | Not a -> not (selects a site)

let patch_for spec site =
  List.find_map
    (fun r -> if selects r.selector site then Some r.patch else None)
    spec

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let cmp_str : cmp -> string = function
  | `Ge -> ">="
  | `Le -> "<="
  | `Eq -> "=="
  | `Lt -> "<"
  | `Gt -> ">"
  | `Ne -> "!="

(* Bare lowercase register name, as the concrete syntax writes it. *)
let reg_str r =
  let s = Reg.name64 r in
  String.sub s 1 (String.length s - 1)

let kind_str : op_kind -> string = function
  | `Reg -> "reg"
  | `Imm -> "imm"
  | `Mem -> "mem"

let defattr_str = function
  | D_target -> "target"
  | D_op i -> Printf.sprintf "op[%d]" i
  | D_op_reg i -> Printf.sprintf "op[%d].reg" i
  | D_op_imm i -> Printf.sprintf "op[%d].imm" i
  | D_op_mem i -> Printf.sprintf "op[%d].mem" i

let rec pp_sel ppf = function
  | Jumps -> Format.pp_print_string ppf "jumps"
  | Heap_writes -> Format.pp_print_string ppf "heap-writes"
  | Calls -> Format.pp_print_string ppf "calls"
  | Returns -> Format.pp_print_string ppf "returns"
  | All -> Format.pp_print_string ppf "all"
  | Mnemonic m -> Format.fprintf ppf "mnemonic %s" m
  | Size_cmp (c, n) -> Format.fprintf ppf "size %s %d" (cmp_str c) n
  | Addr_cmp (c, n) ->
      if n < 0 then Format.fprintf ppf "addr %s %d" (cmp_str c) n
      else Format.fprintf ppf "addr %s 0x%x" (cmp_str c) n
  | Target_cmp (c, n) ->
      if n < 0 then Format.fprintf ppf "target %s %d" (cmp_str c) n
      else Format.fprintf ppf "target %s 0x%x" (cmp_str c) n
  | Op_type (i, k) -> Format.fprintf ppf "op[%d].type == %s" i (kind_str k)
  | Op_reg (i, r) -> Format.fprintf ppf "op[%d].reg == %s" i (reg_str r)
  | Op_imm_cmp (i, c, n) ->
      Format.fprintf ppf "op[%d].imm %s %d" i (cmp_str c) n
  | Reg_used r -> Format.fprintf ppf "uses %s" (reg_str r)
  | Defined a -> Format.fprintf ppf "defined(%s)" (defattr_str a)
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp_sel a pp_sel b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp_sel a pp_sel b
  | Not a -> Format.fprintf ppf "not %a" pp_sel a

let pp_selector = pp_sel

let arg_str = function
  | Trampoline.Arg_int v -> string_of_int v
  | Trampoline.Arg_addr -> "addr"
  | Trampoline.Arg_size -> "size"
  | Trampoline.Arg_asm -> "asm"
  | Trampoline.Arg_instr -> "instr"
  | Trampoline.Arg_reg r -> reg_str r

let pp_patch ppf = function
  | Print -> Format.pp_print_string ppf "print"
  | Count -> Format.pp_print_string ppf "count"
  | Trap -> Format.pp_print_string ppf "trap"
  | Empty -> Format.pp_print_string ppf "empty"
  | Lowfat -> Format.pp_print_string ppf "lowfat"
  | Call { mode; fn; args } ->
      Format.fprintf ppf "call:%s %s(%s)"
        (match mode with Trampoline.Clean -> "clean" | Trampoline.Naked -> "naked")
        fn
        (String.concat "," (List.map arg_str args))

let pp ppf spec =
  List.iter
    (fun r ->
      Format.fprintf ppf "patch %a with %a@." pp_sel r.selector pp_patch r.patch)
    spec

(* Canonical concrete syntax (fully parenthesized by [pp_sel]) is a
   stable, injective encoding of the spec's semantics — exactly what a
   cache key needs. *)
let fragment_key spec = Format.asprintf "%a" pp spec
