(* Tests for the E9Tool-style frontend (lib/tool): the -M/-P command
   languages, the injected instrumentation runtime, end-to-end rewrites
   checked by the static verifier and the trace oracle, jobs-invariance,
   and the rule-list cache key. *)

module Tool = E9_tool.Tool
module Spec = E9_spec.Patchspec
module Trampoline = E9_core.Trampoline
module Rewriter = E9_core.Rewriter
module Static = E9_check.Static
module Trace = E9_check.Trace
module Codegen = E9_workload.Codegen
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Buf = E9_bits.Buf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The patch language                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_patch_builtins () =
  check_bool "print" true (Tool.parse_patch "print" = Tool.Print);
  check_bool "count" true (Tool.parse_patch "count" = Tool.Count);
  check_bool "trap" true (Tool.parse_patch "trap" = Tool.Trap);
  check_bool "empty" true (Tool.parse_patch "empty" = Tool.Empty);
  check_bool "lowfat" true (Tool.parse_patch "lowfat" = Tool.Lowfat);
  check_bool "whitespace tolerated" true
    (Tool.parse_patch "  count " = Tool.Count)

let test_parse_patch_calls () =
  (match Tool.parse_patch "call counter()" with
  | Tool.Call { mode = Trampoline.Clean; fn = "counter"; args = [] } -> ()
  | _ -> Alcotest.fail "bare call wrong");
  (match Tool.parse_patch "call:naked counter" with
  | Tool.Call { mode = Trampoline.Naked; fn = "counter"; args = [] } -> ()
  | _ -> Alcotest.fail "parens should be optional when empty");
  (match Tool.parse_patch "call:clean record(addr, size, 3)" with
  | Tool.Call
      { mode = Trampoline.Clean;
        fn = "record";
        args = [ Trampoline.Arg_addr; Trampoline.Arg_size; Trampoline.Arg_int 3 ]
      } ->
      ()
  | _ -> Alcotest.fail "static args wrong");
  (match Tool.parse_patch "call f(asm, instr, %rdi, rsi, 0x10)" with
  | Tool.Call
      { args =
          [ Trampoline.Arg_asm; Trampoline.Arg_instr;
            Trampoline.Arg_reg Reg.RDI; Trampoline.Arg_reg Reg.RSI;
            Trampoline.Arg_int 0x10 ];
        _ } ->
      ()
  | _ -> Alcotest.fail "asm/instr/register args wrong")

let test_parse_patch_errors () =
  let refused src =
    match Tool.parse_patch src with
    | exception Tool.Error _ -> ()
    | _ -> Alcotest.failf "expected Tool.Error for %S" src
  in
  refused "frobnicate";
  refused "call";
  refused "call:warm f()";
  refused "call f(bogusarg)";
  refused "call f(1,2,3,4,5,6,7)";
  refused "call f(1"

(* ------------------------------------------------------------------ *)
(* The match language                                                  *)
(* ------------------------------------------------------------------ *)

let site ?(addr = 0x400000) insn =
  { Frontend.addr; len = String.length (E9_x86.Encode.encode insn); insn }

let test_parse_match_basic () =
  check_bool "plain selector" true (Tool.parse_match "jumps" = Spec.Jumps);
  (match Tool.parse_match "jumps; size >= 5" with
  | Spec.And (Spec.Jumps, Spec.Size_cmp (`Ge, 5)) -> ()
  | _ -> Alcotest.fail "semicolon pieces must conjoin")

let test_parse_match_exclude () =
  let read_file name =
    check_str "filename passed through" "skip.csv" name;
    "# ranges the harness must not touch\n0x400000,0x400004\n16,32\n"
  in
  let sel = Tool.parse_match ~read_file "jumps; exclude skip.csv" in
  let jmp_at addr = site ~addr (Insn.Jmp 0) in
  check_bool "in first range: excluded" false (Spec.selects sel (jmp_at 0x400000));
  check_bool "range is half-open" true (Spec.selects sel (jmp_at 0x400004));
  check_bool "decimal range honoured" false (Spec.selects sel (jmp_at 16));
  check_bool "outside: still matches" true (Spec.selects sel (jmp_at 0x400100));
  check_bool "base selector still applies" false
    (Spec.selects sel (site ~addr:0x400100 Insn.Ret))

let test_parse_match_errors () =
  (match Tool.parse_match ~read_file:(fun _ -> "nonsense\n") "jumps; exclude x.csv" with
  | exception Tool.Error _ -> ()
  | _ -> Alcotest.fail "bad CSV line must be refused");
  (match Tool.parse_match "   " with
  | exception Tool.Error _ -> ()
  | _ -> Alcotest.fail "empty match must be refused");
  match Tool.parse_match "jumps and" with
  | exception Spec.Parse_error _ -> ()
  | _ -> Alcotest.fail "selector errors surface as Parse_error"

(* ------------------------------------------------------------------ *)
(* End to end: every builtin, statically verified + trace oracle       *)
(* ------------------------------------------------------------------ *)

let elf =
  lazy
    (Codegen.generate
       { Codegen.default_profile with
         Codegen.name = "tool-test"; seed = 7L; functions = 25; iterations = 40 })

let rewrite m p =
  let elf = Lazy.force elf in
  let rules = [ Tool.rule_of ~m ~p () ] in
  let r = Tool.run elf rules in
  (match Static.verify ~original:r.Tool.runtime.Tool.augmented r.Tool.rewrite.Rewriter.output with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "static verify (%s/%s): %a" m p Static.pp_error e);
  r

let trace_checked m p =
  let r = rewrite m p in
  (match
     Trace.compare_runs
       ~instr_ranges:r.Tool.runtime.Tool.instr_ranges
       ~original:r.Tool.runtime.Tool.augmented r.Tool.rewrite.Rewriter.output
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace oracle (%s/%s): %s" m p e);
  r

let run_patched r = Machine.run r.Tool.rewrite.Rewriter.output

let test_print () =
  let r = trace_checked "jumps" "print" in
  let patched = run_patched r in
  check_bool "patched sites" true (E9_core.Stats.succeeded r.Tool.rewrite.Rewriter.stats > 0);
  check_bool "print lines captured" true (patched.Cpu.prints <> []);
  (* Each line is the documented "0xADDR: disasm" shape. *)
  List.iter
    (fun line ->
      check_bool (Printf.sprintf "print line %S shape" line) true
        (String.length line > 4 && String.sub line 0 2 = "0x"))
    patched.Cpu.prints

let test_count () =
  let r = trace_checked "all" "count" in
  let patched = run_patched r in
  check_bool "per-site counters fired" true (patched.Cpu.counters <> [])

let test_trap () =
  let r = trace_checked "returns" "trap" in
  let patched = run_patched r in
  check_bool "trap events observed" true (patched.Cpu.sigtraps > 0)

let test_lowfat () =
  let r = trace_checked "heap-writes" "lowfat" in
  let patched =
    Machine.run ~make_allocator:E9_lowfat.Lowfat.make_allocator
      r.Tool.rewrite.Rewriter.output
  in
  check_int "no redzone violations in a clean program" 0 patched.Cpu.violations

let test_call_clean_static_args () =
  (* The acceptance pair: a clean call trampoline with >= 3 static
     arguments, trace-oracle checked (the clean bracket keeps all guest
     state on the instrumentation-private stack). *)
  let r = trace_checked "calls" "call:clean record(addr, size, 3)" in
  check_bool "call sites diverted" true
    (E9_core.Stats.succeeded r.Tool.rewrite.Rewriter.stats > 0)

let test_call_naked () =
  (* A naked call pushes its return address on the guest stack, so the
     trace oracle would (correctly) flag the stores; the documented
     contract is behavioural equivalence. *)
  let r = rewrite "returns" "call:naked counter()" in
  let orig = Machine.run r.Tool.runtime.Tool.augmented in
  let patched = run_patched r in
  check_bool "behaviourally equivalent" true (Machine.equivalent orig patched)

let test_unknown_fn_refused () =
  let elf = Lazy.force elf in
  match Tool.run elf [ Tool.rule_of ~m:"jumps" ~p:"call frobnicate()" () ] with
  | exception Tool.Error _ -> ()
  | _ -> Alcotest.fail "unknown call target must be refused"

let test_first_match_wins () =
  let elf = Lazy.force elf in
  let rules =
    [ Tool.rule_of ~m:"jumps" ~p:"count" ();
      Tool.rule_of ~m:"all" ~p:"empty" () ]
  in
  let r = Tool.run elf rules in
  let patched = run_patched r in
  check_bool "jumps get the counter, not the later catch-all" true
    (patched.Cpu.counters <> [])

let test_jobs_invariance () =
  let elf = Lazy.force elf in
  let rules = [ Tool.rule_of ~m:"all" ~p:"print" () ] in
  let b jobs =
    Elf_file.to_bytes (Tool.run ~jobs elf rules).Tool.rewrite.Rewriter.output
  in
  check_bool "jobs 1 vs 4 byte-identical" true (Bytes.equal (b 1) (b 4))

(* [tool --emit-augmented AUG -o OUT] then [check AUG OUT]: the output
   must verify against the augmented file as written, not only against
   the in-memory image. *)
let test_emitted_augmented_verifies () =
  let elf =
    Codegen.generate
      { Codegen.default_profile with Codegen.functions = 60; iterations = 2 }
  in
  let r = Tool.run elf [ Tool.rule_of ~m:"jumps" ~p:"count" () ] in
  let aug = Elf_file.to_bytes r.Tool.runtime.Tool.augmented in
  let out = Elf_file.to_bytes r.Tool.rewrite.Rewriter.output in
  check_bool "emitted file parses back to the rewrite input" true
    (Bytes.equal
       (Buf.contents (Elf_file.of_bytes aug).Elf_file.data)
       (Buf.contents r.Tool.runtime.Tool.augmented.Elf_file.data));
  match Static.verify ~original:(Elf_file.of_bytes aug) (Elf_file.of_bytes out) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "check AUG OUT: %a" Static.pp_error e

(* ------------------------------------------------------------------ *)
(* Rule-list identity (result-cache key)                               *)
(* ------------------------------------------------------------------ *)

(* The daemon's result cache keys every emit by the rules' canonical
   text, one encoding for spec and tool rules alike. *)
let test_spec_key_stability () =
  let rules =
    [ Tool.rule_of ~m:"jumps" ~p:"call:clean record(addr,size,3)" ();
      Tool.rule_of ~m:"all" ~p:"count" () ]
  in
  let k = Spec.fragment_key rules in
  check_str "deterministic" k (Spec.fragment_key rules);
  let other = [ Tool.rule_of ~m:"jumps" ~p:"count" () ] in
  check_bool "different rules, different key" true
    (k <> Spec.fragment_key other);
  (* The key covers patch semantics, not just selectors: same matcher,
     different call args must not collide. *)
  let v1 = [ Tool.rule_of ~m:"jumps" ~p:"call counter()" () ] in
  let v2 = [ Tool.rule_of ~m:"jumps" ~p:"call:naked counter()" () ] in
  check_bool "call mode reaches the key" true
    (Spec.fragment_key v1 <> Spec.fragment_key v2)

let suites =
  [ ( "tool.parse",
      [ Alcotest.test_case "patch builtins" `Quick test_parse_patch_builtins;
        Alcotest.test_case "call forms" `Quick test_parse_patch_calls;
        Alcotest.test_case "patch errors" `Quick test_parse_patch_errors;
        Alcotest.test_case "match basics" `Quick test_parse_match_basic;
        Alcotest.test_case "match: csv exclusions" `Quick test_parse_match_exclude;
        Alcotest.test_case "match errors" `Quick test_parse_match_errors ] );
    ( "tool.rewrite",
      [ Alcotest.test_case "print" `Quick test_print;
        Alcotest.test_case "count" `Quick test_count;
        Alcotest.test_case "trap" `Quick test_trap;
        Alcotest.test_case "lowfat" `Quick test_lowfat;
        Alcotest.test_case "clean call, 3 static args" `Quick
          test_call_clean_static_args;
        Alcotest.test_case "naked call" `Quick test_call_naked;
        Alcotest.test_case "unknown fn refused" `Quick test_unknown_fn_refused;
        Alcotest.test_case "first match wins" `Quick test_first_match_wins;
        Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
        Alcotest.test_case "emitted augmented file verifies" `Quick
          test_emitted_augmented_verifies ] );
    ( "tool.fragment",
      [ Alcotest.test_case "spec key stability" `Quick test_spec_key_stability ]
    ) ]
