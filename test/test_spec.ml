(* Tests for the patch-specification language. *)

module Spec = E9_spec.Patchspec
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Codegen = E9_workload.Codegen
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Rewriter = E9_core.Rewriter

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let site ?(addr = 0x400000) insn =
  { Frontend.addr; len = String.length (E9_x86.Encode.encode insn); insn }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_basic () =
  let spec = Spec.parse "patch jumps with counter" in
  check_int "one rule" 1 (List.length spec);
  match spec with
  | [ { Spec.selector = Spec.Jumps; patch = Spec.Count } ] -> ()
  | _ -> Alcotest.fail "wrong parse"

let test_parse_multiline_and_comments () =
  let spec =
    Spec.parse
      {|# hardening policy
patch heap-writes with lowfat   # writes
patch jumps and size >= 5 with counter; patch returns with empty
|}
  in
  check_int "three rules" 3 (List.length spec)

let test_parse_precedence () =
  (* or binds loosest: a and b or c = (a and b) or c *)
  let spec = Spec.parse "patch jumps and size >= 5 or calls with empty" in
  match spec with
  | [ { Spec.selector = Spec.Or (Spec.And (Spec.Jumps, Spec.Size_cmp (`Ge, 5)), Spec.Calls);
        _ } ] ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_parens_and_not () =
  let spec = Spec.parse "patch not (jumps or calls) with empty" in
  match spec with
  | [ { Spec.selector = Spec.Not (Spec.Or (Spec.Jumps, Spec.Calls)); _ } ] -> ()
  | _ -> Alcotest.fail "parens wrong"

let test_parse_hex_address () =
  match Spec.parse "patch address 0x400026 with empty" with
  | [ { Spec.selector = Spec.Addr_cmp (`Eq, 0x400026); _ } ] -> ()
  | _ -> Alcotest.fail "hex address wrong"

let test_parse_errors_have_positions () =
  let fails_at line col src =
    try
      ignore (Spec.parse src);
      Alcotest.failf "expected parse error for %S" src
    with Spec.Parse_error { line = l; col = c; _ } ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "position of error in %S" src)
        (line, col) (l, c)
  in
  fails_at 1 7 "patch bogus with empty";
  fails_at 1 18 "patch jumps with trampoline";
  fails_at 2 7 "patch jumps with empty\npatch ? with empty";
  fails_at 1 13 "patch size >! 5 with empty"

(* Rules can be packed several to a line with [;]: the reported position
   must still be the exact line and column of the offending token, not
   the start of the rule or of the line. *)
let test_parse_errors_multiline_semicolons () =
  let fails_at line col src =
    try
      ignore (Spec.parse src);
      Alcotest.failf "expected parse error for %S" src
    with Spec.Parse_error { line = l; col = c; _ } ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "position of error in %S" src)
        (line, col) (l, c)
  in
  fails_at 1 31 "patch jumps with empty; patch bogus with empty";
  fails_at 2 33
    "patch jumps with empty\npatch calls with counter; patch frobs with empty";
  fails_at 2 13 "patch jumps with empty;\npatch size >! 3 with empty";
  fails_at 1 42 "patch jumps with empty; patch calls with zzz\npatch all with empty";
  fails_at 1 35 "patch addr >= 0x400000 and addr < with empty"

let test_pp_roundtrip () =
  let src =
    "patch jumps and not returns with counter\n\
     patch (heap-writes or calls) and size <= 4 with lowfat\n\
     patch address 0x1234 with empty\n\
     patch returns with print; patch calls with trap # comment\n\
     patch all with call:naked record( addr , rdi,-3 )\n"
  in
  let spec = Spec.parse src in
  let printed = Format.asprintf "%a" Spec.pp spec in
  check_bool "pp reparses to same spec" true (Spec.parse printed = spec)

(* ------------------------------------------------------------------ *)
(* Property: parse_selector ∘ pp_selector = id over random trees       *)
(* ------------------------------------------------------------------ *)

let gen_selector =
  let open QCheck2.Gen in
  let cmp = oneofl [ `Ge; `Le; `Eq; `Lt; `Gt; `Ne ] in
  let reg = oneofl [ Reg.RAX; Reg.RBX; Reg.RSP; Reg.RDI; Reg.R8; Reg.R11 ] in
  let opi = int_bound 3 in
  let defattr =
    oneof
      [ return Spec.D_target;
        map (fun i -> Spec.D_op i) opi;
        map (fun i -> Spec.D_op_reg i) opi;
        map (fun i -> Spec.D_op_imm i) opi;
        map (fun i -> Spec.D_op_mem i) opi ]
  in
  let leaf =
    oneof
      [ oneofl [ Spec.Jumps; Spec.Heap_writes; Spec.Calls; Spec.Returns; Spec.All ];
        map (fun m -> Spec.Mnemonic m)
          (oneofl [ "mov"; "add"; "jmp"; "call"; "ret"; "push" ]);
        map2 (fun c n -> Spec.Size_cmp (c, n)) cmp (int_bound 15);
        map2 (fun c n -> Spec.Addr_cmp (c, 0x400000 + n)) cmp (int_bound 0xffff);
        map2 (fun c n -> Spec.Target_cmp (c, 0x400000 + n)) cmp (int_bound 0xffff);
        map2 (fun i k -> Spec.Op_type (i, k)) opi (oneofl [ `Reg; `Imm; `Mem ]);
        map2 (fun i r -> Spec.Op_reg (i, r)) opi reg;
        map3 (fun i c n -> Spec.Op_imm_cmp (i, c, n)) opi cmp (int_bound 0xff);
        map (fun r -> Spec.Reg_used r) reg;
        map (fun d -> Spec.Defined d) defattr ]
  in
  let rec tree n =
    if n <= 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> Spec.And (a, b)) (tree (n / 2)) (tree (n / 2));
          map2 (fun a b -> Spec.Or (a, b)) (tree (n / 2)) (tree (n / 2));
          map (fun a -> Spec.Not a) (tree (n - 1)) ]
  in
  int_bound 6 >>= tree

let prop_pp_parse_id =
  QCheck2.Test.make ~count:500 ~name:"parse_selector ∘ pp_selector = id"
    ~print:(fun sel -> Format.asprintf "%a" Spec.pp_selector sel)
    gen_selector
    (fun sel ->
      Spec.parse_selector (Format.asprintf "%a" Spec.pp_selector sel) = sel)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let jmp = site (Insn.Jmp 0)
let call = site (Insn.Call 0)
let ret = site Insn.Ret

let store =
  site (Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base:Reg.RBX ()), Insn.Reg Reg.RAX))

let test_selectors () =
  let sel s = Spec.selects (List.hd (Spec.parse ("patch " ^ s ^ " with empty"))).Spec.selector in
  check_bool "jumps+" true (sel "jumps" jmp);
  check_bool "jumps-" false (sel "jumps" call);
  check_bool "calls" true (sel "calls" call);
  check_bool "returns" true (sel "returns" ret);
  check_bool "heap-writes" true (sel "heap-writes" store);
  check_bool "size" true (sel "size = 1" ret);
  check_bool "mnemonic" true (sel "mnemonic mov" store);
  check_bool "address" true (sel "address 0x400000" jmp);
  check_bool "and" false (sel "jumps and size >= 6" jmp);
  check_bool "not" true (sel "not jumps" ret);
  check_bool "all" true (sel "all" ret)

let test_first_match_wins () =
  let spec =
    Spec.parse "patch jumps with counter\npatch all with lowfat"
  in
  check_bool "jump gets counter" true
    (Spec.patch_for spec jmp = Some Spec.Count);
  check_bool "ret falls through to all" true
    (Spec.patch_for spec ret = Some Spec.Lowfat)

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

let test_spec_drives_rewriter () =
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 21L; functions = 40; iterations = 80 }
  in
  let elf = Codegen.generate prof in
  let orig = Machine.run ~make_allocator:E9_lowfat.Lowfat.make_allocator elf in
  let spec =
    Spec.parse "patch heap-writes with lowfat\npatch jumps with counter"
  in
  let select, template = E9_tool.Tool.lower spec in
  let r = Rewriter.run elf ~select ~template in
  let patched =
    Machine.run ~make_allocator:E9_lowfat.Lowfat.make_allocator
      r.Rewriter.output
  in
  check_bool "equivalent" true (Machine.equivalent orig patched);
  check_bool "counters fired (jumps)" true (patched.Cpu.counters <> []);
  check_int "no violations (lowfat active)" 0 patched.Cpu.violations

let suites =
  [ ( "spec.parse",
      [ Alcotest.test_case "basic" `Quick test_parse_basic;
        Alcotest.test_case "multiline + comments" `Quick
          test_parse_multiline_and_comments;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "parens/not" `Quick test_parse_parens_and_not;
        Alcotest.test_case "hex address" `Quick test_parse_hex_address;
        Alcotest.test_case "errors with positions" `Quick
          test_parse_errors_have_positions;
        Alcotest.test_case "errors: multi-line ;-separated" `Quick
          test_parse_errors_multiline_semicolons;
        Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
        QCheck_alcotest.to_alcotest prop_pp_parse_id ] );
    ( "spec.eval",
      [ Alcotest.test_case "selectors" `Quick test_selectors;
        Alcotest.test_case "first match wins" `Quick test_first_match_wins;
        Alcotest.test_case "drives the rewriter" `Quick
          test_spec_drives_rewriter ] ) ]
