(* The e9patch command-line tool: static binary rewriting, synthetic
   binary generation, emulation, and disassembly.

     e9patch generate -o prog.elf --seed 7
     e9patch disasm prog.elf
     e9patch patch prog.elf -o patched.elf --select jumps --template counter
     e9patch run patched.elf *)

module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Stats = E9_core.Stats
module Lowfat = E9_lowfat.Lowfat
module Patchspec = E9_spec.Patchspec
module Tool = E9_tool.Tool
module Obs = E9_obs.Obs
module Fault = E9_fault.Fault

open Cmdliner

let printf = Format.printf

(* Typed failures become one-line diagnostics, not backtraces.  Every
   subcommand body runs under this wrapper. *)
let or_die f =
  try f () with
  | Frontend.Error m
  | Rewriter.Error m
  | Lowfat.Error m
  | Codegen.Error m
  | Tool.Error m
  | Elf_file.Io_error m
  | Invalid_argument m
  | Failure m ->
      Printf.eprintf "e9patch: %s\n" m;
      exit 1
  | Patchspec.Parse_error { line; col; message } ->
      Printf.eprintf "e9patch: %d:%d: %s\n" line col message;
      exit 1
  | Elf_file.Malformed m ->
      Printf.eprintf "e9patch: malformed ELF: %s\n" m;
      exit 1
  | Fault.Parse_error m ->
      Printf.eprintf "e9patch: bad --inject spec: %s\n" m;
      exit 1

(* Shared -v / -vv verbosity flag wiring Logs. *)
let setup_logs =
  let init flags =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (match List.length flags with
      | 0 -> Some Logs.Warning
      | 1 -> Some Logs.Info
      | _ -> Some Logs.Debug)
  in
  Term.(
    const init
    $ Arg.(
        value & flag_all
        & info [ "v"; "verbose" ]
            ~doc:"Verbosity (-v progress, -v -v per-site tactic decisions)."))

(* ------------------------------------------------------------------ *)
(* patch                                                               *)
(* ------------------------------------------------------------------ *)

let patch_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUTPUT" ~doc:"Patched binary path.")
  in
  (* --select S --template T is the one-rule spec [patch S with T]. *)
  let select =
    Arg.(
      value
      & opt
          (enum
             [ ("jumps", Patchspec.Jumps); ("heap-writes", Patchspec.Heap_writes);
               ("all", Patchspec.Or (Patchspec.Jumps, Patchspec.Heap_writes)) ])
          Patchspec.Jumps
      & info [ "select" ] ~doc:"Patch locations: jumps (A1), heap-writes (A2), or all.")
  in
  let template =
    Arg.(
      value
      & opt
          (enum
             [ ("empty", Patchspec.Empty); ("counter", Patchspec.Count);
               ("lowfat", Patchspec.Lowfat) ])
          Patchspec.Empty
      & info [ "template" ]
          ~doc:"Trampoline payload: empty, counter, or lowfat (redzone checks).")
  in
  let granularity =
    Arg.(
      value & opt int 1
      & info [ "M"; "granularity" ]
          ~doc:"Physical page grouping block size, in pages (paper §4).")
  in
  let no_grouping =
    Arg.(value & flag & info [ "no-grouping" ] ~doc:"Naive one-to-one physical mapping.")
  in
  let shared =
    Arg.(
      value & flag
      & info [ "shared" ]
          ~doc:"Shared-object mode: the dynamic linker owns the space below the base.")
  in
  let b0 =
    Arg.(value & flag & info [ "b0-fallback" ] ~doc:"Use int3 traps when all tactics fail.")
  in
  let no_t1 = Arg.(value & flag & info [ "no-t1" ] ~doc:"Disable padded jumps.") in
  let no_t2 = Arg.(value & flag & info [ "no-t2" ] ~doc:"Disable successor eviction.") in
  let no_t3 = Arg.(value & flag & info [ "no-t3" ] ~doc:"Disable neighbour eviction.") in
  let stub =
    Arg.(
      value & flag
      & info [ "stub-loader" ]
          ~doc:"Inject the x86 loader stub (the paper's mechanism) instead of \
                the metadata mapping table.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ]
          ~doc:"A patch-spec program (overrides --select/--template), e.g. \
                'patch heap-writes with lowfat; patch jumps with counter'.")
  in
  let spec_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec-file" ] ~doc:"Read the patch spec from a file.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write structured rewrite telemetry (per-tactic attempts, \
                phase timings, allocator gauges) to $(docv) as ndjson, one \
                event per line.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for the parallel linear-sweep decode (default: \\$E9_JOBS, \
                else 1); the tactic search is one serial pass over the \
                whole text. Output bytes are identical for every $(docv).")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:"Deterministic fault injection (testing): comma-separated \
                rules $(b,site@N) (fire on the Nth occurrence, 0-based), \
                $(b,site@N+) (from the Nth on) or $(b,site%N) (every Nth); \
                sites: alloc, b0alloc, decode, shard, trace, write. The \
                tactic search is shard 0, so $(b,shard@0) aborts it. \
                E.g. 'alloc@3,write@0'.")
  in
  let run () input output select template granularity no_grouping shared b0
      no_t1 no_t2 no_t3 stub spec_arg spec_file trace jobs inject =
   or_die @@ fun () ->
    let fault =
      match inject with
      | None -> Fault.none
      | Some spec -> Fault.create (Fault.parse spec)
    in
    let elf = Elf_file.read_file input in
    let options =
      { Rewriter.tactics =
          { Tactics.default_options with
            Tactics.enable_t1 = not no_t1;
            enable_t2 = not no_t2;
            enable_t3 = not no_t3;
            b0_fallback = b0 };
        granularity;
        grouping = not no_grouping;
        reserve_below_base = shared;
        loader = (if stub then Rewriter.Stub else Rewriter.Table);
        keep_ranges = [] }
    in
    let spec =
      match (spec_arg, spec_file) with
      | Some _, Some _ -> failwith "--spec and --spec-file are exclusive"
      | Some src, None -> Patchspec.parse src
      | None, Some path ->
          let ic = open_in path in
          let src =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Patchspec.parse src
      | None, None -> [ { Patchspec.selector = select; patch = template } ]
    in
    let select, template = Tool.lower spec in
    let obs =
      match trace with Some _ -> Obs.ring () | None -> Obs.null
    in
    let r =
      Rewriter.run ~options ~obs ~fault ?jobs elf ~select ~template
    in
    Elf_file.write_file
      ~fault:(fun () -> Fault.fires fault Fault.Write)
      r.Rewriter.output output;
    printf "%a@." Stats.pp r.Rewriter.stats;
    printf "size: %d -> %d bytes (%.1f%%); %d trampoline bytes; %d mappings@."
      r.Rewriter.input_size r.Rewriter.output_size (Rewriter.size_pct r)
      r.Rewriter.trampoline_bytes r.Rewriter.mappings;
    (match trace with
    | None -> ()
    | Some path -> (
        match
          Obs.write_ndjson
            ~fault:(fun () -> Fault.fires fault Fault.Trace)
            obs path
        with
        | () ->
            (if Obs.dropped obs > 0 then
               printf "trace: ring overflowed, %d oldest events dropped@."
                 (Obs.dropped obs));
            printf "trace: %d events -> %s@."
              (List.length (Obs.events obs))
              path;
            printf "%a@." Obs.Agg.pp (Obs.agg obs)
        | exception Obs.Sink_error m ->
            (* A lost trace must not fail the patch: the rewritten
               binary is already written and verified. *)
            printf "trace: %s (patched binary is intact)@." m));
    (if inject <> None then
       let total = Fault.fired_total fault in
       if total = 0 then printf "inject: no rule fired@."
       else
         Array.iter
           (fun s ->
             let n = Fault.fired fault s in
             if n > 0 then
               printf "inject: %s fired %d time(s)@." (Fault.site_name s) n)
           Fault.sites);
    printf "wrote %s@." output
  in
  Cmd.v (Cmd.info "patch" ~doc:"Statically rewrite a binary (no control flow recovery).")
    Term.(
      const run $ setup_logs $ input $ output $ select $ template
      $ granularity $ no_grouping $ shared $ b0 $ no_t1 $ no_t2 $ no_t3
      $ stub $ spec_arg $ spec_file $ trace $ jobs $ inject)

(* ------------------------------------------------------------------ *)
(* tool                                                                *)
(* ------------------------------------------------------------------ *)

let tool_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUTPUT" ~doc:"Instrumented binary path.")
  in
  let matches =
    Arg.(
      value & opt_all string []
      & info [ "M"; "match" ] ~docv:"MATCH"
          ~doc:"Match expression ($(b,jumps), $(b,op[0].type == mem), \
                $(b,addr >= 0x400000 and addr < 0x401000), \
                $(b,defined(target)), ...); semicolon-separated pieces \
                conjoin and $(b,exclude FILE.csv) pieces subtract the \
                CSV's LO,HI address ranges. Repeatable; the Nth -M pairs \
                with the Nth -P, first match wins.")
  in
  let patches =
    Arg.(
      value & opt_all string []
      & info [ "P"; "patch" ] ~docv:"PATCH"
          ~doc:"Patch for the paired match: $(b,print), $(b,count), \
                $(b,trap), $(b,empty), $(b,lowfat), or \
                $(b,call[:clean|:naked] FN(ARGS)) with args from \
                asm|addr|instr|size, register names and integer literals \
                (FN: $(b,counter), $(b,record), or a hex address).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for the parallel linear-sweep decode (default: \\$E9_JOBS, \
                else 1); the tactic search is one serial pass over the \
                whole text. Output bytes are identical for every $(docv).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Verify the output before writing it: the static verifier \
                plus the trace oracle (instrumentation-private state \
                excluded). Naked-call patches fail the trace oracle by \
                design — their call pushes a return address on the guest \
                stack.")
  in
  let emit_augmented =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-augmented" ] ~docv:"PATH"
          ~doc:"Also write the augmented input (the input plus the \
                injected instrumentation pages) — the $(b,original) a \
                later $(b,e9patch check) run must verify against.")
  in
  let run () input output matches patches jobs check emit_augmented =
   or_die @@ fun () ->
    if matches = [] then failwith "need at least one -M/-P pair";
    if List.length matches <> List.length patches then
      failwith
        (Printf.sprintf "got %d -M but %d -P (they pair up in order)"
           (List.length matches) (List.length patches));
    let rules = List.map2 (fun m p -> Tool.rule_of ~m ~p ()) matches patches in
    let elf = Elf_file.read_file input in
    let res = Tool.run ?jobs elf rules in
    let r = res.Tool.rewrite and rt = res.Tool.runtime in
    if check then (
      (match
         E9_check.Static.verify ~original:rt.Tool.augmented r.Rewriter.output
       with
      | Ok report ->
          printf "static: OK — %a@." E9_check.Static.pp_report report
      | Error e ->
          printf "static: %a@." E9_check.Static.pp_error e;
          exit 1);
      match
        E9_check.Trace.compare_runs ~instr_ranges:rt.Tool.instr_ranges
          ~original:rt.Tool.augmented r.Rewriter.output
      with
      | Ok stats -> printf "dynamic: OK — %a@." E9_check.Trace.pp_stats stats
      | Error msg ->
          printf "dynamic: %s@." msg;
          exit 1);
    (match emit_augmented with
    | Some path ->
        Elf_file.write_file rt.Tool.augmented path;
        printf "wrote augmented input %s@." path
    | None -> ());
    Elf_file.write_file r.Rewriter.output output;
    printf "%a@." Stats.pp r.Rewriter.stats;
    printf "size: %d -> %d bytes (%.1f%%); %d trampoline bytes; %d mappings@."
      r.Rewriter.input_size r.Rewriter.output_size (Rewriter.size_pct r)
      r.Rewriter.trampoline_bytes r.Rewriter.mappings;
    printf "runtime: data page 0x%x, code page 0x%x (%s)@." rt.Tool.data_base
      rt.Tool.code_base
      (String.concat " "
         (List.map
            (fun (n, a) -> Printf.sprintf "%s=0x%x" n a)
            rt.Tool.fns));
    printf "wrote %s@." output
  in
  Cmd.v
    (Cmd.info "tool"
       ~doc:"E9Tool-style frontend: compile -M MATCH -P PATCH pairs \
             (operand/address attributes, CSV exclusions; print, count, \
             trap, empty, lowfat and call trampolines with the \
             argument-passing ABI) into a verified rewrite.")
    Term.(
      const run $ setup_logs $ input $ output $ matches $ patches $ jobs
      $ check $ emit_augmented)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUTPUT")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let functions =
    Arg.(value & opt int 60 & info [ "functions" ] ~doc:"Function count (text size).")
  in
  let iterations =
    Arg.(value & opt int 400 & info [ "iterations" ] ~doc:"Main-loop trips.")
  in
  let pie = Arg.(value & flag & info [ "pie" ] ~doc:"Position independent (loads high).") in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ]
          ~doc:"Use a Table 1 suite profile (e.g. perlbench, chrome, libc.so).")
  in
  let run output seed functions iterations pie bench =
   or_die @@ fun () ->
    let profile =
      match bench with
      | Some name -> (
          match Suite.find name with
          | Some row -> row.Suite.profile
          | None -> failwith ("unknown benchmark: " ^ name))
      | None ->
          { Codegen.default_profile with
            Codegen.seed = Int64.of_int seed; functions; iterations; pie }
    in
    let elf = Codegen.generate profile in
    Elf_file.write_file elf output;
    let text = Option.get (Frontend.find_text elf) in
    printf "wrote %s: %d bytes of text at 0x%x (%s)@." output
      text.Frontend.size text.Frontend.base
      (match elf.Elf_file.etype with Elf_file.Dyn -> "DYN" | Elf_file.Exec -> "EXEC")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic test binary.")
    Term.(const run $ output $ seed $ functions $ iterations $ pie $ bench)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let lowfat =
    Arg.(value & flag & info [ "lowfat" ] ~doc:"Use the low-fat allocator runtime.")
  in
  let fuel =
    Arg.(value & opt int Cpu.default_config.Cpu.fuel & info [ "fuel" ])
  in
  let counters =
    Arg.(value & flag & info [ "counters" ] ~doc:"Dump instrumentation counters.")
  in
  let run input lowfat fuel counters =
   or_die @@ fun () ->
    let elf = Elf_file.read_file input in
    let config = { Cpu.default_config with Cpu.fuel } in
    let make_allocator =
      if lowfat then Some Lowfat.make_allocator else None
    in
    let r = Machine.run ~config ?make_allocator elf in
    if String.length r.Cpu.output > 0 then
      printf "output (%d bytes): %s@." (String.length r.Cpu.output)
        (String.concat ""
           (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
              (List.of_seq (String.to_seq r.Cpu.output))));
    printf "instructions: %d, cycles: %d, far jumps: %d, traps: %d@."
      r.Cpu.insns r.Cpu.cycles r.Cpu.far_jumps r.Cpu.traps;
    if counters then
      List.iter (fun (site, n) -> printf "  counter 0x%x: %d@." site n) r.Cpu.counters;
    match r.Cpu.outcome with
    | Cpu.Exited n ->
        printf "exited %d@." n;
        exit n
    | Cpu.Fault (a, m) ->
        printf "FAULT at 0x%x: %s@." a m;
        exit 139
    | Cpu.Violation p ->
        printf "REDZONE VIOLATION at 0x%x@." p;
        exit 134
    | Cpu.Out_of_fuel ->
        printf "out of fuel@.";
        exit 124
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a binary on the x86_64 subset emulator.")
    Term.(const run $ input $ lowfat $ fuel $ counters)

(* ------------------------------------------------------------------ *)
(* disasm                                                              *)
(* ------------------------------------------------------------------ *)

let disasm_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let limit = Arg.(value & opt int 64 & info [ "limit" ] ~doc:"Max instructions.") in
  let run input limit =
   or_die @@ fun () ->
    let elf = Elf_file.read_file input in
    let _, sites = Frontend.disassemble elf in
    List.iteri
      (fun i (s : Frontend.site) ->
        if i < limit then
          printf "%8x: %-24s%s%s@." s.Frontend.addr
            (E9_x86.Insn.to_string s.Frontend.insn)
            (if Frontend.select_jumps s then "  [A1]" else "")
            (if Frontend.select_heap_writes s then "  [A2]" else ""))
      sites;
    printf "(%d instructions total)@." (List.length sites)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Linear disassembly of the text section.")
    Term.(const run $ input $ limit)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let original =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ORIGINAL")
  in
  let rewritten =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"REWRITTEN")
  in
  let from =
    Arg.(
      value
      & opt (some int) None
      & info [ "from" ]
          ~doc:"Code start address the rewrite's linear sweep used (the \
                ChromeMain workaround); must match for the byte accounting.")
  in
  let dynamic =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:"Also run both binaries and compare architectural traces \
                (assumes empty trampoline templates).")
  in
  let run () original rewritten from dynamic =
   or_die @@ fun () ->
    let orig = Elf_file.read_file original in
    let rewr = Elf_file.read_file rewritten in
    (match E9_check.Static.verify ?disasm_from:from ~original:orig rewr with
    | Ok report ->
        printf "static: OK — %a@." E9_check.Static.pp_report report
    | Error e ->
        printf "static: %a@." E9_check.Static.pp_error e;
        exit 1);
    if dynamic then
      match
        E9_check.Trace.compare_runs ?disasm_from:from ~original:orig rewr
      with
      | Ok stats -> printf "dynamic: OK — %a@." E9_check.Trace.pp_stats stats
      | Error msg ->
          printf "dynamic: %s@." msg;
          exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Independently verify a rewritten binary against its original \
             (byte classification, trampoline reachability, continuation \
             addresses).")
    Term.(const run $ setup_logs $ original $ rewritten $ from $ dynamic)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let n =
    Arg.(
      value & opt int 100
      & info [ "n" ] ~doc:"Number of randomized profiles to run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let run () n seed =
   or_die @@ fun () ->
    let progress i =
      if i mod 10 = 0 then (
        Printf.eprintf "\r%d/%d" i n;
        flush stderr)
    in
    let s = E9_check.Fuzz.campaign ~progress ~n ~seed () in
    Printf.eprintf "\r";
    flush stderr;
    printf "%a@." E9_check.Fuzz.pp_summary s;
    match s.E9_check.Fuzz.failed with
    | [] -> printf "fuzz: OK (seed %d)@." seed
    | failures ->
        List.iter
          (fun (case, msg) -> printf "FAILED %s@.  %s@." case msg)
          failures;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random workload profiles x tactic \
             configs through rewrite, static verification and trace \
             comparison.")
    Term.(const run $ setup_logs $ n $ seed)

(* ------------------------------------------------------------------ *)
(* fault                                                               *)
(* ------------------------------------------------------------------ *)

let fault_cmd =
  let n =
    Arg.(
      value & opt int 100
      & info [ "n" ] ~doc:"Number of randomized fault cases to run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let rpc =
    Arg.(
      value & flag
      & info [ "rpc" ]
          ~doc:"Run the daemon-site campaign (rpcaccept, rpcread, rpcdecode, \
                rpcemit): canned client sessions against in-process servers, \
                checking every session is served byte-identically, dropped \
                at the edge, or killed typed — never the daemon.")
  in
  let run () n seed rpc =
   or_die @@ fun () ->
    let progress i =
      if i mod 10 = 0 then (
        Printf.eprintf "\r%d/%d" i n;
        flush stderr)
    in
    if rpc then begin
      let s = E9_rpc.Harness.campaign ~progress ~n ~seed () in
      Printf.eprintf "\r";
      flush stderr;
      printf "%a@." E9_rpc.Harness.pp_summary s;
      match s.E9_rpc.Harness.failures with
      | [] -> printf "fault: OK (seed %d)@." seed
      | failures ->
          List.iter
            (fun (case, msg) -> printf "FAILED %s@.  %s@." case msg)
            failures;
          exit 1
    end
    else begin
      let s = E9_check.Inject.campaign ~progress ~n ~seed () in
      Printf.eprintf "\r";
      flush stderr;
      printf "%a@." E9_check.Inject.pp_summary s;
      match s.E9_check.Inject.failures with
      | [] -> printf "fault: OK (seed %d)@." seed
      | failures ->
          List.iter
            (fun (case, msg) -> printf "FAILED %s@.  %s@." case msg)
            failures;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Fault-injection campaign: random rewrite cases x random fault \
             schedules; every injected fault must degrade to a verified \
             output, be accounted per-site, or raise a typed error with no \
             partial file, byte-identically across domain counts.")
    Term.(const run $ setup_logs $ n $ seed $ rpc)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on a Unix-domain socket at $(docv) (sessions run on a \
                worker-pool domain each) instead of a single session over \
                stdio.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Write one ndjson telemetry trace per session \
                (session-N.ndjson) into $(docv).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for each session rewrite's parallel linear-sweep \
                decode. Default 1: the daemon parallelizes across \
                sessions; output bytes never depend on this.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for the socket session pool (default: \
                \\$E9_DOMAINS, else the recommended domain count).")
  in
  let max_sessions =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Stop accepting after $(docv) connections (testing; default \
                unlimited).")
  in
  let cache =
    Arg.(
      value & opt int 64
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Entries per content-addressed cache (decode and result).")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:"Deterministic fault injection over the daemon sites \
                (rpcaccept, rpcread, rpcdecode, rpcemit), same grammar as \
                patch --inject.")
  in
  let run () socket trace_dir jobs domains max_sessions cache inject =
   or_die @@ fun () ->
    let fault =
      match inject with
      | None -> Fault.none
      | Some spec -> Fault.create (Fault.parse spec)
    in
    let server =
      E9_rpc.Server.create ~cache_capacity:cache ~jobs ~fault ?trace_dir ()
    in
    (match socket with
    | None -> E9_rpc.Server.serve_channels server stdin stdout
    | Some path ->
        Printf.eprintf "e9patch: serving on %s\n%!" path;
        E9_rpc.Server.serve_unix server ~path ?domains ?max_sessions ());
    (* Protocol output went to stdout (or the socket); the end-of-life
       summary is operator-facing, so it goes to stderr. *)
    let started, closed = E9_rpc.Server.sessions server in
    let rc = E9_rpc.Cache.stats (E9_rpc.Server.ctx server).E9_rpc.Session.result_cache in
    Printf.eprintf
      "e9patch: served %d session(s) (%d request(s), %d error(s)); result \
       cache %d/%d hits; p99 %.1f ms\n%!"
      closed
      (E9_rpc.Server.requests server)
      (E9_rpc.Server.errors server)
      rc.E9_rpc.Cache.hits
      (rc.E9_rpc.Cache.hits + rc.E9_rpc.Cache.misses)
      (1000.0 *. E9_rpc.Server.latency_percentile server 0.99);
    ignore started
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the rewriting service: JSON-RPC 2.0 (binary / options / \
             trampoline / reserve / patch / emit, line-delimited, batch \
             arrays supported) over stdio or a Unix-domain socket, with \
             content-addressed caching and oracle verification of every \
             served output.")
    Term.(
      const run $ setup_logs $ socket $ trace_dir $ jobs $ domains
      $ max_sessions $ cache $ inject)

(* ------------------------------------------------------------------ *)
(* robust                                                              *)
(* ------------------------------------------------------------------ *)

let robust_cmd =
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the machine-readable pass-rate matrix to \\$(docv).")
  in
  let family =
    Arg.(
      value & opt (some string) None
      & info [ "family" ] ~docv:"NAME"
          ~doc:"Score a single corpus family instead of the whole corpus.")
  in
  let run () json family =
   or_die @@ fun () ->
    let module Adversary = E9_workload.Adversary in
    let module Matrix = E9_check.Matrix in
    let scores =
      match family with
      | Some name -> (
          match Adversary.find name with
          | Some f -> [ Matrix.score_family f ]
          | None ->
              failwith
                (Printf.sprintf "unknown family %s; corpus: %s" name
                   (String.concat " "
                      (List.map
                         (fun (f : Adversary.family) -> f.Adversary.name)
                         Adversary.families))))
      | None ->
          let total = List.length Adversary.families in
          Matrix.run
            ~progress:(fun i ->
              Printf.eprintf "\r%d/%d" i total;
              flush stderr)
            ()
    in
    Printf.eprintf "\r";
    flush stderr;
    printf "%a" E9_check.Matrix.pp scores;
    (match json with
    | Some path -> E9_obs.Json.to_file path (Matrix.to_json scores)
    | None -> ());
    if not (List.for_all Matrix.passed scores) then exit 1
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Robustness corpus: score every adversarial binary family \
             (patched%, tactic mix, reject histogram, static and trace \
             verdicts, jobs byte-identity) against its pinned floor.")
    Term.(const run $ setup_logs $ json $ family)

(* ------------------------------------------------------------------ *)
(* spec-check                                                          *)
(* ------------------------------------------------------------------ *)

let spec_check_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC") in
  let run input =
    let ic = open_in input in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Patchspec.parse src with
    | spec ->
        printf "%a" Patchspec.pp spec;
        printf "(%d rules, well-formed)@." (List.length spec)
    | exception Patchspec.Parse_error { line; col; message } ->
        printf "%s:%d:%d: %s@." input line col message;
        exit 1
  in
  Cmd.v (Cmd.info "spec-check" ~doc:"Parse and echo a patch-spec file.")
    Term.(const run $ input)

let () =
  let doc = "static binary rewriting without control flow recovery" in
  (* cmdliner reserves double-dash names for multi-char options; accept the
     documented [fuzz --n N] spelling anyway. *)
  let argv = Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv in
  exit
    (Cmd.eval ~argv
       (Cmd.group (Cmd.info "e9patch" ~doc)
          [ patch_cmd; tool_cmd; generate_cmd; run_cmd; disasm_cmd; check_cmd;
            fuzz_cmd; fault_cmd; robust_cmd; spec_check_cmd; serve_cmd ]))
