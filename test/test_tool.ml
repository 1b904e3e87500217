(* Tests for the E9Tool-style frontend (lib/tool): the -M/-P command
   languages, the injected instrumentation runtime, end-to-end rewrites
   checked by the static verifier and the trace oracle, and the
   rule-list cache key. *)

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
  check_bool "print" true (Spec.parse_patch "print" = Tool.Print);
  check_bool "count" true (Spec.parse_patch "count" = Tool.Count);
  check_bool "trap" true (Spec.parse_patch "trap" = Tool.Trap);
  check_bool "empty" true (Spec.parse_patch "empty" = Tool.Empty);
  check_bool "lowfat" true (Spec.parse_patch "lowfat" = Tool.Lowfat);
  check_bool "whitespace tolerated" true
    (Spec.parse_patch "  count " = Tool.Count)

let test_parse_patch_calls () =
  (match Spec.parse_patch "call counter()" with
  | Tool.Call { mode = Trampoline.Clean; fn = "counter"; args = [] } -> ()
  | _ -> Alcotest.fail "bare call wrong");
  (match Spec.parse_patch "call:naked counter" with
  | Tool.Call { mode = Trampoline.Naked; fn = "counter"; args = [] } -> ()
  | _ -> Alcotest.fail "parens should be optional when empty");
  (match Spec.parse_patch "call:clean record(addr, size, 3)" with
  | Tool.Call
      { mode = Trampoline.Clean;
        fn = "record";
        args = [ Trampoline.Arg_addr; Trampoline.Arg_size; Trampoline.Arg_int 3 ]
      } ->
      ()
  | _ -> Alcotest.fail "static args wrong");
  (match Spec.parse_patch "call f(asm, instr, %rdi, rsi, 0x10)" with
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
    match Spec.parse_patch src with
    | exception Spec.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error for %S" src
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

(* A [#] comment in a match runs to the end of its line, as in a spec:
   a [;] inside it does not start another piece. *)
let test_parse_match_comment () =
  let _, sites =
    Frontend.disassemble
      (Codegen.generate
         { Codegen.default_profile with Codegen.seed = 7L; functions = 25 })
  in
  let picked m = List.filter (Spec.selects (Tool.parse_match m)) sites in
  let jumps = picked "jumps" in
  check_bool "some jumps are shorter than 5 bytes" true
    (List.length (picked "jumps; size >= 5") < List.length jumps);
  check_bool "a comment hides its ';'" true
    (picked "jumps # A1 only; size >= 5" = jumps);
  check_bool "a newline ends the comment" true
    (picked "jumps # A1 only; x\n; size >= 5" = picked "jumps; size >= 5")

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
  (* A naked call pushes its return address on the guest stack: a
     call-class store, which the trace oracle drops in both runs, so the
     naked pair is checked by both oracles like every other patch. *)
  let r = trace_checked "returns" "call:naked counter()" in
  check_bool "return sites diverted" true
    (E9_core.Stats.succeeded r.Tool.rewrite.Rewriter.stats > 0)

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

(* [check IN OUT] on a runtime-keeping tool output: the runtime is found
   from the two files alone, and the output verifies against the
   augmented image it rebuilds — the image [Tool.run] rewrote, as its
   file reads back. A rewrite of the plain input carries no runtime. *)
let test_emitted_augmented_verifies () =
  let elf =
    Codegen.generate
      { Codegen.default_profile with Codegen.functions = 60; iterations = 2 }
  in
  let r = Tool.run elf [ Tool.rule_of ~m:"jumps" ~p:"print" () ] in
  let original = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let out = Elf_file.of_bytes (Elf_file.to_bytes r.Tool.rewrite.Rewriter.output) in
  let rt = Tool.runtime_in ~original out in
  check_bool "the output's runtime is found" true
    (rt.Tool.pages <> None && rt.Tool.pages = r.Tool.runtime.Tool.pages);
  check_bool "rebuilt image parses back to the rewrite input" true
    (Bytes.equal
       (Buf.contents rt.Tool.augmented.Elf_file.data)
       (Buf.contents r.Tool.runtime.Tool.augmented.Elf_file.data));
  (match Static.verify ~original:rt.Tool.augmented out with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "check IN OUT: %a" Static.pp_error e);
  let plain =
    Rewriter.run original ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Counter)
  in
  check_bool "a plain rewrite carries no runtime" true
    ((Tool.runtime_in ~original plain.Rewriter.output).Tool.pages = None)

(* The runtime only where a rule uses it: [count], [trap] and [empty]
   keep no state there, so [Tool.run] rewrites the user's file exactly
   as the rules lowered against the raw input do, and the output carries
   no runtime; [print], [lowfat] and [call] rewrite the augmented input,
   whose runtime [check] finds in the output and verifies against. *)
let test_runtime_only_when_used () =
  let elf = Lazy.force elf in
  let original = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  List.iter
    (fun (m, p, keeps_state) ->
      let name = m ^ "|" ^ p in
      let rules = [ Tool.rule_of ~m ~p () ] in
      let out =
        Elf_file.to_bytes (Tool.run elf rules).Tool.rewrite.Rewriter.output
      in
      let found = Tool.runtime_in ~original (Elf_file.of_bytes out) in
      if keeps_state then (
        check_bool (name ^ ": runtime found") true (found.Tool.pages <> None);
        match Static.verify ~original:found.Tool.augmented (Elf_file.of_bytes out) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %a" name Static.pp_error e)
      else
        let raw = { Tool.augmented = elf; pages = None; instr_ranges = [] } in
        let select, template = Tool.lower raw rules in
        check_bool (name ^ ": the raw input's rewrite") true
          (Bytes.equal out
             (Elf_file.to_bytes (Rewriter.run elf ~select ~template).Rewriter.output));
        check_bool (name ^ ": no runtime found") true (found.Tool.pages = None))
    [ ("all", "count", false); ("returns", "trap", false);
      ("jumps", "empty", false); ("jumps", "print", true);
      ("heap-writes", "lowfat", true);
      ("calls", "call:clean record(addr,size,3)", true) ]

(* The [pie] family loads at 0x555555554000, the runtime pages sit above
   it, and a site's trampoline window reaches 2 GiB below the site. Each
   runtime-keeping pair must place its trampolines within rel32 reach of
   the runtime too, and pass both oracles. *)
let test_pie_within_reach () =
  let f = Option.get (E9_workload.Adversary.find "pie") in
  let elf, holes = E9_check.Matrix.prepare f in
  let options = E9_check.Matrix.options_of f in
  List.iter
    (fun (m, p) ->
      let r = Tool.run ~options ~holes elf [ Tool.rule_of ~m ~p () ] in
      let rt = r.Tool.runtime and out = r.Tool.rewrite.Rewriter.output in
      check_bool (m ^ "|" ^ p ^ ": sites patched") true
        (E9_core.Stats.succeeded r.Tool.rewrite.Rewriter.stats > 0);
      (match Static.verify ~holes ~original:rt.Tool.augmented out with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "static (%s|%s): %a" m p Static.pp_error e);
      match
        Trace.compare_runs ~holes ~instr_ranges:rt.Tool.instr_ranges
          ~original:rt.Tool.augmented out
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "trace (%s|%s): %s" m p e)
    [ ("heap-writes", "lowfat"); ("jumps", "print");
      ("calls", "call:clean record(addr,size,3)");
      ("returns", "call:naked counter()") ]

(* The tool-smoke input with a 4 KiB segment [gap] bytes above it, which
   puts the injected runtime that far above the text, rewritten on
   [heap-writes|lowfat]. The rewrite must complete and pass both
   oracles; returns its per-site telemetry. *)
let rewrite_with_far_runtime ~gap =
  let elf =
    Codegen.generate
      { Codegen.default_profile with
        Codegen.seed = 7L; functions = 40; iterations = 80 }
  in
  let holes = Codegen.holes elf in
  let top =
    List.fold_left
      (fun acc (s : Elf_file.segment) -> max acc (s.vaddr + s.memsz))
      0 elf.Elf_file.segments
  in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rw;
         vaddr = (top + gap + 0xfff) land lnot 0xfff;
         offset = 0;
         filesz = 0;
         memsz = 4096;
         align = 4096 }
       ~content:(Bytes.make 4096 '\000'));
  let obs = E9_obs.Obs.ring () in
  let r =
    Tool.run ~obs ~holes elf [ Tool.rule_of ~m:"heap-writes" ~p:"lowfat" () ]
  in
  let rt = r.Tool.runtime and out = r.Tool.rewrite.Rewriter.output in
  (match Static.verify ~holes ~original:rt.Tool.augmented out with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "static: %a" Static.pp_error e);
  (match
     Trace.compare_runs ~holes ~instr_ranges:rt.Tool.instr_ranges
       ~original:rt.Tool.augmented out
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace: %s" e);
  obs

(* 3 GiB up, the runtime is out of reach of every site but not of every
   trampoline: a window between the two still serves each site. *)
let test_runtime_3gib_up () =
  let agg = E9_obs.Obs.agg (rewrite_with_far_runtime ~gap:0xc000_0000) in
  check_bool "sites selected" true (agg.E9_obs.Obs.Agg.sites > 0);
  check_int "every selected site patched" agg.E9_obs.Obs.Agg.sites
    agg.E9_obs.Obs.Agg.sites_patched

(* 5 GiB up, no address is within rel32 of both a site and the runtime:
   every selected site fails with [range] on its own. *)
let test_runtime_out_of_reach () =
  let obs = rewrite_with_far_runtime ~gap:0x1_4000_0000 in
  let agg = E9_obs.Obs.agg obs in
  check_bool "sites selected" true (agg.E9_obs.Obs.Agg.sites > 0);
  check_int "every selected site failed" agg.E9_obs.Obs.Agg.sites
    agg.E9_obs.Obs.Agg.sites_failed;
  List.iter
    (function
      | E9_obs.Obs.Attempt { outcome = Rejected Range; _ } -> ()
      | E9_obs.Obs.Attempt { addr; _ } ->
          Alcotest.failf "site 0x%x: an attempt other than a range reject"
            addr
      | _ -> ())
    (E9_obs.Obs.events obs)

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

(* One count of trampoline bytes: a rewrite's [trampoline_bytes] is the
   total length of the trampolines its tactic pass emits. The pass is
   run again here, as [Rewriter.run] runs it, over the same rewrite
   input, and its [Tactics.trampolines] summed. *)
let test_trampoline_bytes_counted_once () =
  let elf = Lazy.force elf in
  List.iter
    (fun p ->
      let rules = [ Tool.rule_of ~m:"jumps" ~p () ] in
      let r = Tool.run elf rules in
      let select, template = Tool.lower r.Tool.runtime rules in
      let input = Elf_file.copy r.Tool.runtime.Tool.augmented in
      let options = Rewriter.default_options in
      let index, selected =
        Frontend.index_fold input ~init:[] (fun acc site ->
            if select site then site :: acc else acc)
      in
      let text = Frontend.index_text index in
      let ctx =
        E9_core.Tactics.create_ctx
          ~text:
            (Buf.of_bytes
               (Buf.sub input.Elf_file.data ~pos:text.Frontend.offset
                  ~len:text.Frontend.size))
          ~text_base:text.Frontend.base
          ~layout:
            (E9_core.Layout.create
               ~reserve_below_base:options.Rewriter.reserve_below_base
               ~block_size:(options.Rewriter.granularity * 4096) input)
          ~index ~options:options.Rewriter.tactics ()
      in
      List.iter
        (fun site -> ignore (E9_core.Tactics.patch ctx site (template site)))
        selected;
      let emitted =
        List.fold_left
          (fun acc (_, code) -> acc + Bytes.length code)
          0 (E9_core.Tactics.trampolines ctx)
      in
      check_bool (p ^ ": trampolines emitted") true (emitted > 0);
      check_int (p ^ ": trampoline bytes") emitted
        r.Tool.rewrite.Rewriter.trampoline_bytes)
    [ "empty"; "count"; "print"; "call:clean record(addr,size,3)" ]

let suites =
  [ ( "tool.parse",
      [ Alcotest.test_case "patch builtins" `Quick test_parse_patch_builtins;
        Alcotest.test_case "call forms" `Quick test_parse_patch_calls;
        Alcotest.test_case "patch errors" `Quick test_parse_patch_errors;
        Alcotest.test_case "match basics" `Quick test_parse_match_basic;
        Alcotest.test_case "match comments end at end of line" `Quick
          test_parse_match_comment;
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
        Alcotest.test_case "emitted augmented file verifies" `Quick
          test_emitted_augmented_verifies;
        Alcotest.test_case "pie: trampolines reach the runtime" `Quick
          test_pie_within_reach;
        Alcotest.test_case "runtime 3 GiB up: trampolines between" `Quick
          test_runtime_3gib_up;
        Alcotest.test_case "runtime out of reach fails per site" `Quick
          test_runtime_out_of_reach;
        Alcotest.test_case "runtime injected only when a rule uses it" `Quick
          test_runtime_only_when_used;
        Alcotest.test_case "trampoline bytes counted once" `Quick
          test_trampoline_bytes_counted_once ] );
    ( "tool.fragment",
      [ Alcotest.test_case "spec key stability" `Quick test_spec_key_stability ]
    ) ]
