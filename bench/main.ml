(* The evaluation harness: regenerates every table and figure of the paper
   on the synthetic suite (see DESIGN.md §4 for the experiment index).

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- one experiment
     ... robustness | figure4 | figure5 | grouping | ablation | pie | b0
     ... scalability | parallel | faults | calibration | robust | bechamel

   Flags (EXPERIMENTS.md "Reproducing"):
     --serial       run every task on one domain (the speedup baseline)
     --domains N    fan tasks across exactly N domains
     --jobs N       domains per rewrite (intra-binary sharding; default 1)
     --smoke        reduced sizes/trial counts, for CI timeouts
     --json PATH    dump every experiment's rows as JSON to PATH

   Independent (app × tactic-config) rewrite+emulate tasks are fanned
   across domains with E9_bits.Pool; results are collected per task and
   printed in input order, so the output is byte-identical to a serial run
   (only wall-clock changes — DESIGN.md §7). A machine-readable
   BENCH_throughput.json (wall time, emulated insns/sec, superblock-cache
   hit rate, domain count) is written after every run so successive PRs
   have a perf trajectory to regress against.

   Absolute numbers differ from the paper (the substrate is an emulator
   with a documented cost model, and binaries are scaled down); the shapes
   — who wins, by what factor, where the cliffs are — are the reproduced
   quantities. EXPERIMENTS.md records the comparison. *)

module Pool = E9_bits.Pool
module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Dromaeo = E9_workload.Dromaeo
module Machine = E9_emu.Machine
module Cpu = E9_emu.Cpu
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Stats = E9_core.Stats
module Trampoline = E9_core.Trampoline
module Lowfat = E9_lowfat.Lowfat
module Reloc = E9_reloc.Reloc

let printf = Format.printf

let heading title =
  printf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Harness options                                                     *)
(* ------------------------------------------------------------------ *)

let serial = ref false
let smoke = ref false
let domains_opt : int option ref = ref None
let jobs_opt : int option ref = ref None
let json_path : string option ref = ref None

let domains () =
  if !serial then 1
  else match !domains_opt with Some d -> max 1 d | None -> Pool.default_domains ()

(* Fan independent tasks across domains; results come back in input order,
   so the caller's sequential printing is deterministic. *)
let par_map f xs = Pool.map ~domains:(domains ()) f xs

(* Smoke mode trims task lists so CI can run under a tight timeout. *)
let cut n xs = if !smoke then List.filteri (fun i _ -> i < n) xs else xs

(* ------------------------------------------------------------------ *)
(* JSON (shared with the trace exporter: lib/obs, no external deps)    *)
(* ------------------------------------------------------------------ *)

module Json = E9_obs.Json
module Obs = E9_obs.Obs

(* Per-experiment row store for --json. Rows are recorded from the serial
   print phase (never from parallel tasks), in print order. *)
let json_rows : (string * Json.t list ref) list ref = ref []

let record_row exp fields =
  let row = Json.Obj fields in
  match List.assoc_opt exp !json_rows with
  | Some r -> r := row :: !r
  | None -> json_rows := !json_rows @ [ (exp, ref [ row ]) ]

let rows_json () =
  Json.Obj
    (List.map (fun (exp, r) -> (exp, Json.List (List.rev !r))) !json_rows)

(* ------------------------------------------------------------------ *)
(* Shared measurement machinery                                        *)
(* ------------------------------------------------------------------ *)

(* Emulation accounting, aggregated across domains: every guest run in the
   bench goes through [run_emu] so the throughput summary and
   BENCH_throughput.json see all of them. *)
let emu_insns = Atomic.make 0
let emu_wall_us = Atomic.make 0
let emu_block_hits = Atomic.make 0
let emu_block_misses = Atomic.make 0
let emu_block_invalidations = Atomic.make 0

(* Rewrite-path telemetry, aggregated across domains: every measured
   rewrite goes through [traced_run] with a per-call aggregator sink
   (constant memory), merged into one global rollup under a lock. The
   per-tactic histogram and phase-span totals land in
   BENCH_throughput.json. The bechamel micro-benchmarks stay detached so
   they keep measuring the bare (sink-less) hot path. *)
let obs_agg = Obs.Agg.create ()
let obs_lock = Mutex.create ()

let traced_run ?options ?disasm_from ?frontend elf ~select ~template =
  let obs = Obs.aggregator () in
  let r =
    Rewriter.run ?options ~obs ?jobs:!jobs_opt ?disasm_from ?frontend elf
      ~select ~template
  in
  Mutex.protect obs_lock (fun () ->
      Obs.Agg.merge_into ~dst:obs_agg (Obs.agg obs));
  r

(* Static-verification accounting: every measured rewrite is checked by
   the E9_check verifier, and a single rejection fails the whole bench
   run. The Reloc-based robustness benches deliberately produce broken
   binaries and are exempt. *)
let verify_checked = Atomic.make 0
let verify_failed = Atomic.make 0

let run_emu ?config ?make_allocator ?libs elf =
  let t0 = Unix.gettimeofday () in
  let r = Machine.run ?config ?make_allocator ?libs elf in
  let dt_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  ignore (Atomic.fetch_and_add emu_insns r.Cpu.insns);
  ignore (Atomic.fetch_and_add emu_wall_us dt_us);
  ignore (Atomic.fetch_and_add emu_block_hits r.Cpu.block_hits);
  ignore (Atomic.fetch_and_add emu_block_misses r.Cpu.block_misses);
  ignore
    (Atomic.fetch_and_add emu_block_invalidations r.Cpu.block_invalidations);
  r

type app_result = {
  loc : int;
  base : float;
  t1 : float;
  t2 : float;
  t3 : float;
  succ : float;
  time : float;  (** patched cycles / original cycles, percent *)
  size : float;  (** output file size / input file size, percent *)
}

let json_of_app (a : app_result) =
  Json.Obj
    [ ("loc", Json.Int a.loc);
      ("base_pct", Json.Float a.base);
      ("t1_pct", Json.Float a.t1);
      ("t2_pct", Json.Float a.t2);
      ("t3_pct", Json.Float a.t3);
      ("succ_pct", Json.Float a.succ);
      ("time_pct", Json.Float a.time);
      ("size_pct", Json.Float a.size) ]

let expect_exit name (r : Cpu.result) =
  match r.Cpu.outcome with
  | Cpu.Exited _ -> ()
  | Cpu.Fault (a, m) -> failwith (Printf.sprintf "%s faulted at 0x%x: %s" name a m)
  | Cpu.Violation p -> failwith (Printf.sprintf "%s: violation at 0x%x" name p)
  | Cpu.Out_of_fuel -> failwith (name ^ ": out of fuel")

let options_for (row : Suite.row) =
  { Rewriter.default_options with
    Rewriter.reserve_below_base = row.Suite.profile.Codegen.shared_object }

(* The ChromeMain workaround (§6.2): when the generator marked the first
   real instruction, start disassembly there. *)
let disasm_from_of elf =
  Option.map
    (fun (s : Elf_file.section) -> s.Elf_file.addr)
    (Elf_file.find_section elf Codegen.chromemain_marker)

let verify_rewrite name elf (r : Rewriter.result) =
  Atomic.incr verify_checked;
  match
    E9_check.Static.verify ?disasm_from:(disasm_from_of elf) ~original:elf
      r.Rewriter.output
  with
  | Ok _ -> ()
  | Error e ->
      Atomic.incr verify_failed;
      Format.eprintf "[verify] %s rejected: %a@." name E9_check.Static.pp_error
        e

(* Rewrite with [select]/[template] and measure one Table 1 line. *)
let measure_app ?(options = Rewriter.default_options) ?make_allocator
    ~select ~template elf (orig : Cpu.result) =
  let r = traced_run ~options ?disasm_from:(disasm_from_of elf) elf ~select ~template in
  verify_rewrite "measure_app" elf r;
  let patched = run_emu ?make_allocator r.Rewriter.output in
  expect_exit "patched" patched;
  let s = r.Rewriter.stats in
  { loc = Stats.total s;
    base = Stats.base_pct s;
    t1 = Stats.t1_pct s;
    t2 = Stats.t2_pct s;
    t3 = Stats.t3_pct s;
    succ = Stats.succ_pct s;
    time = 100.0 *. float_of_int patched.Cpu.cycles /. float_of_int orig.Cpu.cycles;
    size = Rewriter.size_pct r }

let geomean = function
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
           /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let pp_app ppf (a : app_result) =
  Format.fprintf ppf "%7d %6.2f %5.2f %5.2f %5.2f %6.2f %7.2f %7.2f" a.loc
    a.base a.t1 a.t2 a.t3 a.succ a.time a.size

let bench_table1 () =
  heading "Table 1: patching statistics (A1 = jumps, A2 = heap writes)";
  printf
    "%-12s | %7s %6s %5s %5s %5s %6s %7s %7s | %7s %6s %5s %5s %5s %6s %7s %7s@."
    "binary" "#Loc" "Base%" "T1%" "T2%" "T3%" "Succ%" "Time%" "Size%" "#Loc"
    "Base%" "T1%" "T2%" "T3%" "Succ%" "Time%" "Size%";
  let measured =
    par_map
      (fun (row : Suite.row) ->
        let elf = Codegen.generate row.Suite.profile in
        let orig = run_emu elf in
        expect_exit row.Suite.profile.Codegen.name orig;
        let options = options_for row in
        let a1 =
          measure_app ~options ~select:Frontend.select_jumps
            ~template:(fun _ -> Trampoline.Empty)
            elf orig
        in
        let a2 =
          measure_app ~options ~select:Frontend.select_heap_writes
            ~template:(fun _ -> Trampoline.Empty)
            elf orig
        in
        (row, a1, a2))
      (cut 4 Suite.rows)
  in
  let acc_a1 = ref [] and acc_a2 = ref [] in
  List.iter
    (fun ((row : Suite.row), a1, a2) ->
      let name = row.Suite.profile.Codegen.name in
      acc_a1 := a1 :: !acc_a1;
      acc_a2 := a2 :: !acc_a2;
      record_row "table1"
        [ ("binary", Json.Str name);
          ("a1", json_of_app a1);
          ("a2", json_of_app a2) ];
      printf "%-12s | %a | %a@." name pp_app a1 pp_app a2)
    measured;
  let avg sel rs = mean (List.map sel rs) in
  let total sel rs = List.fold_left (fun a r -> a + sel r) 0 rs in
  let summary name rs (paper : Suite.paper_app) paper_breakdown =
    printf "%-12s | %7d %6.2f %5.2f %5.2f %5.2f %6.2f %7.2f %7.2f@." name
      (total (fun r -> r.loc) rs)
      (avg (fun r -> r.base) rs)
      (avg (fun r -> r.t1) rs)
      (avg (fun r -> r.t2) rs)
      (avg (fun r -> r.t3) rs)
      (avg (fun r -> r.succ) rs)
      (avg (fun r -> r.time) rs)
      (avg (fun r -> r.size) rs);
    let b, t1, t2, t3 = paper_breakdown in
    printf "%-12s | %7d %6.2f %5.2f %5.2f %5.2f %6.2f %7.2f %7.2f@."
      "  (paper)" paper.Suite.loc b t1 t2 t3 paper.Suite.succ
      (Option.value ~default:Float.nan paper.Suite.time)
      paper.Suite.size
  in
  printf "%-12s@." (String.make 12 '-');
  summary "Avg A1" !acc_a1 Suite.paper_total_a1 (72.79, 13.95, 3.73, 9.48);
  summary "Avg A2" !acc_a2 Suite.paper_total_a2 (81.63, 15.68, 0.60, 2.09)

(* Per-row paper-vs-measured comparison for the coverage columns — the
   quantities the synthetic calibration is supposed to transfer. *)
let bench_compare () =
  heading "Per-row comparison: measured vs paper (Base% and Succ%)";
  printf "%-12s | %21s | %21s | %21s | %21s@." "" "A1 Base% (mea/pap)"
    "A1 Succ% (mea/pap)" "A2 Base% (mea/pap)" "A2 Succ% (mea/pap)";
  let measured =
    par_map
      (fun (row : Suite.row) ->
        let elf = Codegen.generate row.Suite.profile in
        let options = options_for row in
        let stats select =
          let r =
            traced_run ~options ?disasm_from:(disasm_from_of elf) elf ~select
              ~template:(fun _ -> Trampoline.Empty)
          in
          r.Rewriter.stats
        in
        (row, stats Frontend.select_jumps, stats Frontend.select_heap_writes))
      (cut 4 Suite.rows)
  in
  let d_base_a1 = ref [] and d_base_a2 = ref [] in
  List.iter
    (fun ((row : Suite.row), a1, a2) ->
      let p1 = row.Suite.paper_a1 and p2 = row.Suite.paper_a2 in
      d_base_a1 := abs_float (Stats.base_pct a1 -. p1.Suite.base) :: !d_base_a1;
      d_base_a2 := abs_float (Stats.base_pct a2 -. p2.Suite.base) :: !d_base_a2;
      record_row "compare"
        [ ("binary", Json.Str row.Suite.profile.Codegen.name);
          ("a1_base_pct", Json.Float (Stats.base_pct a1));
          ("a1_base_paper", Json.Float p1.Suite.base);
          ("a2_base_pct", Json.Float (Stats.base_pct a2));
          ("a2_base_paper", Json.Float p2.Suite.base) ];
      printf "%-12s | %9.2f / %9.2f | %9.2f / %9.2f | %9.2f / %9.2f | %9.2f / %9.2f@."
        row.Suite.profile.Codegen.name (Stats.base_pct a1) p1.Suite.base
        (Stats.succ_pct a1) p1.Suite.succ (Stats.base_pct a2) p2.Suite.base
        (Stats.succ_pct a2) p2.Suite.succ)
    measured;
  printf "@.mean |Base%% delta|: A1 %.2f points, A2 %.2f points@."
    (mean !d_base_a1) (mean !d_base_a2)

(* ------------------------------------------------------------------ *)
(* Figure 4: Dromaeo DOM benchmarks on the browsers                    *)
(* ------------------------------------------------------------------ *)

let bar width pct =
  (* 100% = empty bar; 350% = full width. *)
  let n =
    max 0 (min width (int_of_float ((pct -. 100.0) /. 250.0 *. float_of_int width)))
  in
  String.make n '#'

let bench_figure4 () =
  heading "Figure 4: Dromaeo DOM overheads (A2 instrumentation)";
  printf "%-18s %10s %10s@." "suite" "Chrome%" "FireFox%";
  let measured =
    par_map
      (fun (s : Dromaeo.suite) ->
        let elf = Codegen.generate (Dromaeo.program s) in
        let orig = run_emu elf in
        expect_exit s.Dromaeo.name orig;
        let text, _ = Frontend.disassemble elf in
        let limit =
          text.Frontend.base
          + int_of_float
              (float_of_int text.Frontend.size
              *. Dromaeo.firefox_instrumented_fraction)
        in
        let run select =
          (measure_app ~select ~template:(fun _ -> Trampoline.Empty) elf orig)
            .time
        in
        (* Chrome: the whole binary is instrumented. FireFox: the bulk of
           the time is spent in code E9Patch did not patch (JIT output,
           other DSOs) — only part of the text is instrumented. *)
        let chrome = run Frontend.select_heap_writes in
        let firefox =
          run (fun st ->
              Frontend.select_heap_writes st && st.Frontend.addr < limit)
        in
        (s, chrome, firefox))
      (cut 3 Dromaeo.suites)
  in
  let chrome_res = ref [] and firefox_res = ref [] in
  List.iter
    (fun ((s : Dromaeo.suite), chrome, firefox) ->
      chrome_res := chrome :: !chrome_res;
      firefox_res := firefox :: !firefox_res;
      record_row "figure4"
        [ ("suite", Json.Str s.Dromaeo.name);
          ("chrome_pct", Json.Float chrome);
          ("firefox_pct", Json.Float firefox) ];
      printf "%-18s %9.1f%% %9.1f%%  |%-20s|%-20s@." s.Dromaeo.name chrome
        firefox (bar 20 chrome) (bar 20 firefox))
    measured;
  printf "%-18s %9.1f%% %9.1f%%   (geometric mean)@." "Geom.Mean"
    (geomean !chrome_res) (geomean !firefox_res);
  printf "%-18s %9.1f%% %9.1f%%@." "  (paper)" Dromaeo.paper_chrome_mean
    Dromaeo.paper_firefox_mean

(* ------------------------------------------------------------------ *)
(* Figure 5: empty A2 vs LowFat hardening                              *)
(* ------------------------------------------------------------------ *)

let measure_a2_lowfat (row : Suite.row) =
  let elf = Codegen.generate row.Suite.profile in
  let orig = run_emu elf in
  expect_exit row.Suite.profile.Codegen.name orig;
  let options = options_for row in
  let a2 =
    measure_app ~options ~select:Frontend.select_heap_writes
      ~template:(fun _ -> Trampoline.Empty)
      elf orig
  in
  let lf =
    measure_app ~options ~select:Frontend.select_heap_writes
      ~template:(fun _ -> Trampoline.Lowfat_check)
      ~make_allocator:Lowfat.make_allocator elf orig
  in
  (a2, lf)

let bench_figure5 () =
  heading "Figure 5: heap-write timings, empty (A2) vs LowFat instrumentation";
  printf "%-12s %10s %10s@." "binary" "A2%" "LowFat%";
  let measured =
    par_map
      (fun (row : Suite.row) -> (row, measure_a2_lowfat row))
      (cut 4 Suite.spec_rows)
  in
  let a2s = ref [] and lfs = ref [] in
  List.iter
    (fun ((row : Suite.row), (a2, lf)) ->
      a2s := a2.time :: !a2s;
      lfs := lf.time :: !lfs;
      record_row "figure5"
        [ ("binary", Json.Str row.Suite.profile.Codegen.name);
          ("a2_pct", Json.Float a2.time);
          ("lowfat_pct", Json.Float lf.time) ];
      printf "%-12s %9.1f%% %9.1f%%  |%-20s|%-20s@."
        row.Suite.profile.Codegen.name a2.time lf.time (bar 20 a2.time)
        (bar 20 lf.time))
    measured;
  printf "%-12s %9.1f%% %9.1f%%   (SPEC mean)@." "Mean" (mean !a2s) (mean !lfs);
  printf "%-12s %9.1f%% %9.1f%%@." "  (paper)" 164.71 227.27;
  (* Browser rows, as in the figure's right-hand bars. *)
  let browsers =
    par_map
      (fun name ->
        let row = Option.get (Suite.find name) in
        (name, measure_a2_lowfat row))
      [ "chrome"; "firefox" ]
  in
  List.iter
    (fun (name, (a2, lf)) ->
      record_row "figure5"
        [ ("binary", Json.Str name);
          ("a2_pct", Json.Float a2.time);
          ("lowfat_pct", Json.Float lf.time) ];
      printf "%-12s %9.1f%% %9.1f%%@." name a2.time lf.time)
    browsers

(* ------------------------------------------------------------------ *)
(* §4/§6.1: physical page grouping                                     *)
(* ------------------------------------------------------------------ *)

let bench_grouping () =
  heading "Physical page grouping (§4): file size and mapping counts";
  let rows = cut 3 [ "perlbench"; "gcc"; "povray"; "xalancbmk"; "vim"; "libc.so" ] in
  printf "%-11s %-4s | %10s %10s %10s %10s@." "binary" "app" "grouped%"
    "naive%" "#mappings" "#phys";
  let measured =
    par_map
      (fun name ->
        let row = Option.get (Suite.find name) in
        let elf = Codegen.generate row.Suite.profile in
        let per_app =
          List.map
            (fun (app, select) ->
              let size grouping =
                let options = { (options_for row) with Rewriter.grouping } in
                let r =
                  traced_run ~options elf ~select
                    ~template:(fun _ -> Trampoline.Empty)
                in
                (Rewriter.size_pct r, r.Rewriter.mappings,
                 r.Rewriter.physical_blocks)
              in
              let g, maps, phys = size true in
              let n, _, _ = size false in
              (app, g, n, maps, phys))
            [ ("A1", Frontend.select_jumps); ("A2", Frontend.select_heap_writes) ]
        in
        (name, per_app))
      rows
  in
  let g_sizes = ref [] and n_sizes = ref [] in
  List.iter
    (fun (name, per_app) ->
      List.iter
        (fun (app, g, n, maps, phys) ->
          g_sizes := g :: !g_sizes;
          n_sizes := n :: !n_sizes;
          record_row "grouping"
            [ ("binary", Json.Str name);
              ("app", Json.Str app);
              ("grouped_pct", Json.Float g);
              ("naive_pct", Json.Float n);
              ("mappings", Json.Int maps);
              ("phys", Json.Int phys) ];
          printf "%-11s %-4s | %9.1f%% %9.1f%% %10d %10d@." name app g n maps
            phys)
        per_app)
    measured;
  printf "%-16s | %9.1f%% %9.1f%%@." "Mean" (mean !g_sizes) (mean !n_sizes);
  printf "%-16s | %9s %9s  (A1: 157.4 vs 2339.8; A2: 130.9 vs 669.0)@."
    "  (paper)" "" "";
  (* Granularity sweep (the vm.max_map_count discussion). *)
  printf "@.Granularity sweep (gcc, A1): M vs #mappings vs Size%%@.";
  let row = Option.get (Suite.find "gcc") in
  let elf = Codegen.generate row.Suite.profile in
  let sweep =
    par_map
      (fun m ->
        let options = { (options_for row) with Rewriter.granularity = m } in
        let r =
          traced_run ~options elf ~select:Frontend.select_jumps
            ~template:(fun _ -> Trampoline.Empty)
        in
        (m, r.Rewriter.mappings, Rewriter.size_pct r))
      (cut 3 [ 1; 2; 4; 16; 64 ])
  in
  List.iter
    (fun (m, mappings, size) ->
      record_row "grouping-granularity"
        [ ("granularity", Json.Int m);
          ("mappings", Json.Int mappings);
          ("size_pct", Json.Float size) ];
      printf "  M=%-3d  mappings=%-6d  size=%.1f%%@." m mappings size)
    sweep

(* ------------------------------------------------------------------ *)
(* §6.1: tactic ablation ("without T3, coverage would be ~90.5%")      *)
(* ------------------------------------------------------------------ *)

let bench_ablation () =
  heading "Tactic ablation (§6.1): coverage per tactic stack (A1)";
  let stacks =
    [ ("B1+B2", fun (t : Tactics.options) ->
        { t with Tactics.enable_t1 = false; enable_t2 = false; enable_t3 = false });
      ("+T1", fun t -> { t with Tactics.enable_t2 = false; enable_t3 = false });
      ("+T2", fun t -> { t with Tactics.enable_t3 = false });
      ("+T3 (full)", fun t -> t);
      ("full+jointT2", fun t -> { t with Tactics.t2_joint = true }) ]
  in
  printf "%-14s" "binary";
  List.iter (fun (n, _) -> printf " %12s" n) stacks;
  printf "@.";
  let rows =
    cut 3 [ "perlbench"; "gcc"; "leslie3d"; "GemsFDTD"; "vim"; "libxul.so" ]
  in
  let measured =
    par_map
      (fun name ->
        let row = Option.get (Suite.find name) in
        let elf = Codegen.generate row.Suite.profile in
        let per_stack =
          List.map
            (fun (_, f) ->
              let options =
                { (options_for row) with
                  Rewriter.tactics = f Tactics.default_options }
              in
              let r =
                traced_run ~options elf ~select:Frontend.select_jumps
                  ~template:(fun _ -> Trampoline.Empty)
              in
              Stats.succ_pct r.Rewriter.stats)
            stacks
        in
        (name, per_stack))
      rows
  in
  let accs = Array.make (List.length stacks) [] in
  List.iter
    (fun (name, per_stack) ->
      printf "%-14s" name;
      record_row "ablation"
        (("binary", Json.Str name)
        :: List.map2
             (fun (stack, _) s -> (stack, Json.Float s))
             stacks per_stack);
      List.iteri
        (fun i s ->
          accs.(i) <- s :: accs.(i);
          printf " %11.2f%%" s)
        per_stack;
      printf "@.")
    measured;
  printf "%-14s" "Mean";
  Array.iter (fun xs -> printf " %11.2f%%" (mean xs)) accs;
  printf "@.(paper: Base 72.8%% -> ~90.5%% without T3 -> ~100%% with T3)@."

(* ------------------------------------------------------------------ *)
(* §5.1: PIE vs non-PIE                                                *)
(* ------------------------------------------------------------------ *)

let bench_pie () =
  heading "PIE vs non-PIE (§5.1): valid displacement space doubles";
  printf "%-10s %12s %12s@." "app" "non-PIE Base%" "PIE Base%";
  let measured =
    par_map
      (fun (app, select) ->
        let base pie =
          let prof =
            { Codegen.default_profile with
              Codegen.seed = 999L; functions = 600; iterations = 1; pie }
          in
          let r =
            traced_run (Codegen.generate prof) ~select
              ~template:(fun _ -> Trampoline.Empty)
          in
          Stats.base_pct r.Rewriter.stats
        in
        (app, base false, base true))
      [ ("A1", Frontend.select_jumps); ("A2", Frontend.select_heap_writes) ]
  in
  List.iter
    (fun (app, nonpie, pie) ->
      record_row "pie"
        [ ("app", Json.Str app);
          ("nonpie_base_pct", Json.Float nonpie);
          ("pie_base_pct", Json.Float pie) ];
      printf "%-10s %11.2f%% %11.2f%%@." app nonpie pie)
    measured;
  printf "(paper: PIE binaries have Base%% > 93%%)@."

(* ------------------------------------------------------------------ *)
(* §2.1.1: the B0 baseline                                             *)
(* ------------------------------------------------------------------ *)

let bench_b0 () =
  heading "B0 signal-handler baseline (§2.1.1): orders of magnitude slower";
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 31L; functions = 60; iterations = 150 }
  in
  let elf = Codegen.generate prof in
  let orig = run_emu elf in
  expect_exit "orig" orig;
  let time options =
    let r =
      traced_run ~options elf ~select:Frontend.select_jumps
        ~template:(fun _ -> Trampoline.Empty)
    in
    let p = run_emu r.Rewriter.output in
    expect_exit "patched" p;
    (100.0 *. float_of_int p.Cpu.cycles /. float_of_int orig.Cpu.cycles,
     r.Rewriter.stats)
  in
  let jumps, _ = time Rewriter.default_options in
  let b0, stats =
    time
      { Rewriter.default_options with
        Rewriter.tactics =
          { Tactics.default_options with
            Tactics.enable_t1 = false;
            enable_t2 = false;
            enable_t3 = false;
            b0_fallback = true } }
  in
  record_row "b0"
    [ ("jump_tactics_pct", Json.Float jumps);
      ("b0_pct", Json.Float b0);
      ("b0_traps", Json.Int stats.Stats.b0) ];
  printf "jump tactics (B1/B2/T1/T2/T3): %8.0f%%@." jumps;
  printf "B0 fallback (%d int3 traps):   %8.0f%%  (%.0fx the jump tactics)@."
    stats.Stats.b0 b0 (b0 /. jumps);
  printf "(paper: signal handlers are slower \"sometimes by orders of magnitude\")@."

(* ------------------------------------------------------------------ *)
(* §1/§7: robustness vs the relocating-rewriter baseline               *)
(* ------------------------------------------------------------------ *)

let bench_robustness () =
  heading
    "Relocating-rewriter baseline (§1, §7): fast when recovery succeeds, \
     broken when it does not";
  (* Part 1: head-to-head on one binary. *)
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 5L; functions = 60; iterations = 150 }
  in
  let elf = Codegen.generate prof in
  let orig = run_emu elf in
  expect_exit "orig" orig;
  let describe name (r : Cpu.result) tables =
    let eq = Machine.equivalent orig r in
    let verdict =
      if eq then "CORRECT"
      else
        match r.Cpu.outcome with
        | Cpu.Fault _ -> "CRASH"
        | _ -> "WRONG OUTPUT"
    in
    record_row "robustness"
      [ ("rewriter", Json.Str name);
        ("verdict", Json.Str verdict);
        ("time_pct",
         Json.Float
           (100.0 *. float_of_int r.Cpu.cycles /. float_of_int orig.Cpu.cycles))
      ];
    printf "  %-26s %-10s time=%3.0f%%  %s@." name verdict
      (100.0 *. float_of_int r.Cpu.cycles /. float_of_int orig.Cpu.cycles)
      tables
  in
  let rl cfg = Reloc.run ~cfg elf ~select:Frontend.select_jumps in
  let gt = rl Reloc.Ground_truth in
  describe "reloc (ground-truth CFG)"
    (run_emu gt.Reloc.output)
    (Printf.sprintf "(tables %d/%d)" gt.Reloc.tables_rewritten
       gt.Reloc.tables_total);
  let hz = rl Reloc.Heuristic in
  describe "reloc (heuristic CFG)"
    (run_emu hz.Reloc.output)
    (Printf.sprintf "(tables %d/%d: PIC tables invisible)"
       hz.Reloc.tables_rewritten hz.Reloc.tables_total);
  let e9 =
    traced_run elf ~select:Frontend.select_jumps
      ~template:(fun _ -> Trampoline.Counter)
  in
  describe "e9patch (no CFG at all)"
    (run_emu e9.Rewriter.output)
    "";
  (* Part 2: the paper's probability argument. "Consider a static binary
     analysis for detecting indirect jump targets that is 99.9% accurate
     ... the effective accuracy drops to ~37% per 1000 indirect jumps."
     Degrade ground truth to per-table accuracy p and measure the fraction
     of binaries that survive relocation, against the predicted p^n. *)
  printf
    "@.Per-table CFG accuracy p vs whole-binary soundness (predicted p^n):@.";
  printf "  %8s %8s %8s %11s %9s %15s@." "p" "tables" "trials" "predicted"
    "sound" "runs surviving";
  let trials = if !smoke then 4 else 12 in
  let measured =
    par_map
      (fun (p, functions) ->
        let survived = ref 0 in
        let sound = ref 0 in
        let tables = ref 0 in
        for t = 1 to trials do
          let prof =
            { Codegen.default_profile with
              Codegen.seed = Int64.of_int (1000 + t); functions;
              iterations = 20 }
          in
          let elf = Codegen.generate prof in
          let orig = run_emu elf in
          let r =
            Reloc.run ~cfg:(Reloc.Heuristic_prob (p, Int64.of_int t)) elf
              ~select:(fun _ -> false)
          in
          tables := r.Reloc.tables_total;
          if r.Reloc.tables_rewritten = r.Reloc.tables_total then incr sound;
          if Machine.equivalent orig (run_emu r.Reloc.output) then
            incr survived
        done;
        (p, !tables, !sound, !survived))
      (cut 3 [ (1.0, 60); (0.999, 60); (0.99, 60); (0.99, 240); (0.95, 60) ])
  in
  List.iter
    (fun (p, tables, sound, survived) ->
      record_row "robustness-prob"
        [ ("p", Json.Float p);
          ("tables", Json.Int tables);
          ("trials", Json.Int trials);
          ("predicted_pct", Json.Float (100.0 *. (p ** float_of_int tables)));
          ("sound_pct",
           Json.Float (100.0 *. float_of_int sound /. float_of_int trials));
          ("survived_pct",
           Json.Float (100.0 *. float_of_int survived /. float_of_int trials))
        ];
      printf "  %8.3f %8d %8d %10.0f%% %8.0f%% %14.0f%%@." p tables trials
        (100.0 *. (p ** float_of_int tables))
        (100.0 *. float_of_int sound /. float_of_int trials)
        (100.0 *. float_of_int survived /. float_of_int trials))
    measured;
  printf "  (\"sound\" = every table recovered. A run can survive an unsound@.";
  printf "   rewrite by luck when the missed jump is not exercised — the@.";
  printf "   fragility is latent: testing passes, production crashes.@.";
  printf "   E9Patch is sound at every size by construction.)@."

(* ------------------------------------------------------------------ *)
(* Scalability: rewrite throughput vs binary size                      *)
(* ------------------------------------------------------------------ *)

let bench_scalability () =
  heading "Scalability: rewriting time vs text size (A1, all tactics)";
  printf "%10s %10s %10s %12s %10s %10s %10s %8s@." "text KB" "#Loc" "Succ%"
    "rewrite s" "KB/s" "verify s" "Minsn/s" "bhit%";
  let sizes = if !smoke then [ 250; 1000 ] else [ 250; 1000; 4000; 10000 ] in
  let measured =
    par_map
      (fun functions ->
        let prof =
          { Codegen.default_profile with
            Codegen.seed = 64L; functions; iterations = 50 }
        in
        let elf = Codegen.generate prof in
        let text, _ = Frontend.disassemble elf in
        let t0 = Unix.gettimeofday () in
        let r =
          traced_run elf ~select:Frontend.select_jumps
            ~template:(fun _ -> Trampoline.Empty)
        in
        let dt = Unix.gettimeofday () -. t0 in
        let tv = Unix.gettimeofday () in
        verify_rewrite (Printf.sprintf "scalability(%d fns)" functions) elf r;
        let verify_dt = Unix.gettimeofday () -. tv in
        (* End-to-end: run the patched output, which both validates the
           rewrite at this size and exercises the emulator's superblock
           cache on a large text. *)
        let t1 = Unix.gettimeofday () in
        let patched = run_emu r.Rewriter.output in
        let emu_dt = Unix.gettimeofday () -. t1 in
        expect_exit "patched" patched;
        (functions, text, r, dt, verify_dt, patched, emu_dt))
      sizes
  in
  List.iter
    (fun (_, (text : Frontend.text), (r : Rewriter.result), dt, verify_dt,
          (patched : Cpu.result), emu_dt) ->
      let minsns_s =
        if emu_dt > 0.0 then float_of_int patched.Cpu.insns /. emu_dt /. 1e6
        else 0.0
      in
      let bhit =
        let total = patched.Cpu.block_hits + patched.Cpu.block_misses in
        if total = 0 then 0.0
        else 100.0 *. float_of_int patched.Cpu.block_hits /. float_of_int total
      in
      record_row "scalability"
        [ ("text_kb", Json.Int (text.Frontend.size / 1024));
          ("loc", Json.Int (Stats.total r.Rewriter.stats));
          ("succ_pct", Json.Float (Stats.succ_pct r.Rewriter.stats));
          ("rewrite_s", Json.Float dt);
          ("kb_per_s", Json.Float (float_of_int text.Frontend.size /. 1024.0 /. dt));
          ("verify_s", Json.Float verify_dt);
          ("emu_insns", Json.Int patched.Cpu.insns);
          ("emu_minsns_per_s", Json.Float minsns_s);
          ("block_hit_pct", Json.Float bhit) ];
      printf "%10d %10d %9.2f%% %12.2f %10.0f %10.2f %10.1f %7.1f%%@."
        (text.Frontend.size / 1024)
        (Stats.total r.Rewriter.stats)
        (Stats.succ_pct r.Rewriter.stats)
        dt
        (float_of_int text.Frontend.size /. 1024.0 /. dt)
        verify_dt minsns_s bhit)
    measured

(* ------------------------------------------------------------------ *)
(* Domain-parallel rewriting: jobs-invariance + intra-binary scaling   *)
(* ------------------------------------------------------------------ *)

(* Captured for the [parallel] object in BENCH_throughput.json. *)
let parallel_json : Json.t option ref = ref None

let bench_parallel () =
  heading
    "Domain-parallel rewriting: jobs-invariance and intra-binary scaling";
  (* The parallel tactic search runs over content-defined chunks; without
     chunking the whole text is one chunk and there is nothing to spread
     across domains. *)
  let chunking = Chunker.default in
  let chunked options = { options with Rewriter.chunking = Some chunking } in
  (* Part 1: across the whole Table 1 corpus, jobs=4 must produce the
     same bytes as jobs=1 and pass the independent verifier. *)
  printf "corpus determinism (chunking %a): jobs=4 vs jobs=1@."
    Chunker.pp_params chunking;
  let checked =
    par_map
      (fun (row : Suite.row) ->
        let elf = Codegen.generate row.Suite.profile in
        let options = chunked (options_for row) in
        let rewrite jobs =
          Rewriter.run ~options ~jobs ?disasm_from:(disasm_from_of elf) elf
            ~select:Frontend.select_jumps
            ~template:(fun _ -> Trampoline.Empty)
        in
        let r1 = rewrite 1 in
        let r4 = rewrite 4 in
        verify_rewrite (row.Suite.profile.Codegen.name ^ "(jobs=4)") elf r4;
        let identical =
          Bytes.equal
            (Elf_file.to_bytes r1.Rewriter.output)
            (Elf_file.to_bytes r4.Rewriter.output)
        in
        (row.Suite.profile.Codegen.name, r4.Rewriter.shards, identical))
      (cut 4 Suite.rows)
  in
  let corpus_rows =
    List.map
      (fun (name, chunks, identical) ->
        record_row "parallel"
          [ ("binary", Json.Str name);
            ("chunks", Json.Int chunks);
            ("identical", Json.Bool identical) ];
        printf "  %-12s %4d chunks  %s@." name chunks
          (if identical then "identical" else "DIFFERS");
        if not identical then
          failwith (name ^ ": jobs=4 output differs from jobs=1");
        Json.Obj
          [ ("binary", Json.Str name);
            ("chunks", Json.Int chunks);
            ("identical", Json.Bool identical) ])
      checked
  in
  (* Part 2: one large binary, chunked, jobs ∈ {1,2,4}, beside the
     whole-text (one chunk, serial) search it competes with. The quantity
     under test is the tactic_search span — decode and serialization
     scale separately — but end-to-end wall time is recorded too. Runs
     are sequential (never fanned with par_map) so each sweep point has
     the machine to itself. *)
  let functions = if !smoke then 1000 else 4000 in
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 64L; functions; iterations = 1 }
  in
  let elf = Codegen.generate prof in
  let text, _ = Frontend.disassemble elf in
  let measure options jobs =
    let obs = Obs.aggregator () in
    let t0 = Unix.gettimeofday () in
    let r =
      Rewriter.run ~options ~obs ~jobs elf ~select:Frontend.select_jumps
        ~template:(fun _ -> Trampoline.Empty)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let search = Obs.Agg.span_total (Obs.agg obs) "tactic_search" in
    (r, wall, search)
  in
  let _, _, whole_search = measure Rewriter.default_options 1 in
  let options = chunked Rewriter.default_options in
  let r1, wall1, search1 = measure options 1 in
  let reference = Elf_file.to_bytes r1.Rewriter.output in
  let cores = Domain.recommended_domain_count () in
  printf "@.intra-binary scaling (%d KB text, %d chunks, %d cores):@."
    (text.Frontend.size / 1024) r1.Rewriter.shards cores;
  printf "  whole-text (1 chunk) search: %.3fs@." whole_search;
  printf "  %5s %12s %12s %9s@." "jobs" "search s" "total s" "speedup";
  let sweep =
    List.map
      (fun jobs ->
        let r, wall, search =
          if jobs = 1 then (r1, wall1, search1) else measure options jobs
        in
        if not (Bytes.equal (Elf_file.to_bytes r.Rewriter.output) reference)
        then failwith (Printf.sprintf "jobs=%d differs on the sweep binary" jobs);
        let speedup = if search > 0.0 then search1 /. search else 0.0 in
        record_row "parallel-sweep"
          [ ("jobs", Json.Int jobs);
            ("search_s", Json.Float search);
            ("wall_s", Json.Float wall);
            ("search_speedup", Json.Float speedup);
            ("chunks", Json.Int r.Rewriter.shards);
            ("steal_count", Json.Int r.Rewriter.steals);
            ("setup_s", Json.Float r.Rewriter.setup_s) ];
        printf "  %5d %12.3f %12.3f %8.2fx  (%d chunks, %d steals, \
                setup %.4fs)@."
          jobs search wall speedup r.Rewriter.shards r.Rewriter.steals
          r.Rewriter.setup_s;
        Json.Obj
          [ ("jobs", Json.Int jobs);
            ("search_s", Json.Float search);
            ("wall_s", Json.Float wall);
            ("search_speedup", Json.Float speedup);
            ("chunks", Json.Int r.Rewriter.shards);
            ("steal_count", Json.Int r.Rewriter.steals);
            ("setup_s", Json.Float r.Rewriter.setup_s) ])
      [ 1; 2; 4 ]
  in
  parallel_json :=
    Some
      (Json.Obj
         [ ("chunking", Json.Str (Format.asprintf "%a" Chunker.pp_params chunking));
           ("corpus", Json.List corpus_rows);
           ("cores", Json.Int cores);
           ("sweep_text_kb", Json.Int (text.Frontend.size / 1024));
           ("sweep_chunks", Json.Int r1.Rewriter.shards);
           ("whole_text_search_s", Json.Float whole_search);
           ("sweep", Json.List sweep) ])

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign (DESIGN.md §11)                            *)
(* ------------------------------------------------------------------ *)

module Inject = E9_check.Inject

(* Captured for the [faults] object in BENCH_throughput.json. *)
let faults_json : Json.t option ref = ref None

let bench_faults () =
  heading "Fault injection: hardening contract under random fault schedules";
  (* Each case runs a jobs-1 leg, jobs-2/4 invariance legs, a
     total-allocator-exhaustion B0 leg and write/trace containment legs;
     any uncaught exception, verifier reject or half-written file is a
     contract violation. The campaign is deterministic in (n, seed). *)
  let n = if !smoke then 60 else 250 in
  let seed = 42 in
  let s = Inject.campaign ~n ~seed () in
  printf "  %a@." Inject.pp_summary s;
  List.iter
    (fun (case, msg) -> printf "  VIOLATION %s@.    %s@." case msg)
    s.Inject.failures;
  record_row "faults"
    [ ("cases", Json.Int s.Inject.cases);
      ("seed", Json.Int seed);
      ("full", Json.Int s.Inject.full);
      ("degraded", Json.Int s.Inject.degraded);
      ("typed", Json.Int s.Inject.typed);
      ("skipped", Json.Int s.Inject.skipped);
      ("b0_sites", Json.Int s.Inject.b0_sites);
      ("violations", Json.Int (List.length s.Inject.failures)) ];
  faults_json := Some (Inject.summary_json s);
  if s.Inject.failures <> [] then
    failwith "fault campaign found contract violations"

(* ------------------------------------------------------------------ *)
(* Calibration curves (documents how suite parameters were derived)    *)
(* ------------------------------------------------------------------ *)

let bench_calibration () =
  heading "Calibration: generator bias vs Base% (suite parameter derivation)";
  printf "A1: short_jump_bias -> Base%% (non-PIE)@.";
  let a1 =
    par_map
      (fun bias ->
        let prof =
          { Codegen.default_profile with
            Codegen.seed = 11L; functions = 400; iterations = 1;
            short_jump_bias = bias }
        in
        let r =
          traced_run (Codegen.generate prof) ~select:Frontend.select_jumps
            ~template:(fun _ -> Trampoline.Empty)
        in
        (bias, Stats.base_pct r.Rewriter.stats))
      [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
  in
  List.iter
    (fun (bias, base) ->
      record_row "calibration-a1"
        [ ("short_jump_bias", Json.Float bias); ("base_pct", Json.Float base) ];
      printf "  bias=%.1f -> Base=%.2f%%@." bias base)
    a1;
  printf "A2: small_write_bias -> Base%% (non-PIE)@.";
  let a2 =
    par_map
      (fun sw ->
        let prof =
          { Codegen.default_profile with
            Codegen.seed = 11L; functions = 400; iterations = 1;
            small_write_bias = sw }
        in
        let r =
          traced_run (Codegen.generate prof)
            ~select:Frontend.select_heap_writes
            ~template:(fun _ -> Trampoline.Empty)
        in
        (sw, Stats.base_pct r.Rewriter.stats))
      [ 0.0; 0.2; 0.4; 0.6; 0.8 ]
  in
  List.iter
    (fun (sw, base) ->
      record_row "calibration-a2"
        [ ("small_write_bias", Json.Float sw); ("base_pct", Json.Float base) ];
      printf "  small=%.1f -> Base=%.2f%%@." sw base)
    a2

(* ------------------------------------------------------------------ *)
(* Iset micro-benchmark: augmented tree vs the linear-scan baseline    *)
(* ------------------------------------------------------------------ *)

(* Captured for the [iset] list in BENCH_throughput.json. *)
let iset_json : Json.t option ref = ref None

let bench_iset () =
  heading "Iset: O(log n) strided query vs the linear-scan baseline";
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimate name f =
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) () in
    let raw = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
    let est = ref 0.0 in
    Hashtbl.iter
      (fun _ r ->
        match Analyze.OLS.estimates (Analyze.one ols clock r) with
        | Some (e :: _) -> est := e
        | Some [] | None -> ())
      raw;
    !est
  in
  let sizes = [ 100; 1_000; 10_000; 100_000 ] in
  printf "  %9s %14s %16s %9s@." "intervals" "tree ns/run" "linear ns/run"
    "speedup";
  let rows =
    List.map
      (fun n ->
        (* The allocator's worst query shape: every inter-blocker gap is
           one byte too small for the request, so the pre-PR linear scan
           visits all [n] intervals before finding the slot past the last
           one, while the augmented tree prunes whole subtrees on
           [max_gap] and answers in O(log n). *)
        let tree = E9_bits.Iset.create () in
        let lin = Iset_linear.create () in
        for i = 0 to n - 1 do
          let lo = 0x10000 + (i * 48) in
          E9_bits.Iset.add tree ~lo ~hi:(lo + 33);
          Iset_linear.add lin ~lo ~hi:(lo + 33)
        done;
        let hi = 0x10000 + (n * 48) + 0x10000 in
        let answer =
          E9_bits.Iset.find_free_strided tree ~size:16 ~lo:0x10000 ~hi
            ~stride:64
        in
        if
          answer
          <> Iset_linear.find_free_strided lin ~size:16 ~lo:0x10000 ~hi
               ~stride:64
        then failwith (Printf.sprintf "iset@%d: tree and linear disagree" n);
        let tree_ns =
          estimate
            (Printf.sprintf "iset-tree-%d" n)
            (fun () ->
              ignore
                (E9_bits.Iset.find_free_strided tree ~size:16 ~lo:0x10000 ~hi
                   ~stride:64))
        in
        let linear_ns =
          estimate
            (Printf.sprintf "iset-linear-%d" n)
            (fun () ->
              ignore
                (Iset_linear.find_free_strided lin ~size:16 ~lo:0x10000 ~hi
                   ~stride:64))
        in
        let speedup = if tree_ns > 0.0 then linear_ns /. tree_ns else 0.0 in
        record_row "iset"
          [ ("intervals", Json.Int n);
            ("tree_ns", Json.Float tree_ns);
            ("linear_ns", Json.Float linear_ns);
            ("speedup", Json.Float speedup) ];
        printf "  %9d %14.1f %16.1f %8.1fx@." n tree_ns linear_ns speedup;
        Json.Obj
          [ ("intervals", Json.Int n);
            ("tree_ns", Json.Float tree_ns);
            ("linear_ns", Json.Float linear_ns);
            ("speedup", Json.Float speedup) ])
      sizes
  in
  iset_json := Some (Json.List rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: rewriter throughput per experiment       *)
(* ------------------------------------------------------------------ *)

let bench_bechamel () =
  heading "Bechamel: rewriter micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 5L; functions = 80; iterations = 1 }
  in
  let elf = Codegen.generate prof in
  let dromaeo_elf =
    Codegen.generate
      { (Dromaeo.program (List.hd Dromaeo.suites)) with Codegen.iterations = 1 }
  in
  let rewrite ?(options = Rewriter.default_options) elf select template () =
    (* Deliberately detached (no obs sink): bechamel measures the bare
       hot path, which keeps the <2% sink-overhead budget honest. *)
    ignore (Rewriter.run ~options elf ~select ~template:(fun _ -> template))
  in
  (* The allocator's joint-pun query shape: a strided search over a
     fragmented interval set. ~2000 blockers with gaps one byte too small
     force the scan to walk the whole window carrying the blocker from
     the previous probe (the two-lookups-per-probe regression this
     guards). *)
  let strided_set =
    let s = E9_bits.Iset.create () in
    for i = 0 to 1999 do
      E9_bits.Iset.add s ~lo:(0x10000 + (i * 48)) ~hi:(0x10000 + (i * 48) + 33)
    done;
    s
  in
  let tests =
    [ Test.make ~name:"iset-find-free-strided"
        (Staged.stage (fun () ->
             ignore
               (E9_bits.Iset.find_free_strided strided_set ~size:16 ~lo:0x10000
                  ~hi:0x40000 ~stride:64)));
      Test.make ~name:"table1-A1-rewrite"
        (Staged.stage (rewrite elf Frontend.select_jumps Trampoline.Empty));
      Test.make ~name:"table1-A2-rewrite"
        (Staged.stage
           (rewrite elf Frontend.select_heap_writes Trampoline.Empty));
      Test.make ~name:"figure4-dromaeo-rewrite"
        (Staged.stage
           (rewrite dromaeo_elf Frontend.select_heap_writes Trampoline.Empty));
      Test.make ~name:"figure5-lowfat-rewrite"
        (Staged.stage
           (rewrite elf Frontend.select_heap_writes Trampoline.Lowfat_check));
      Test.make ~name:"grouping-naive-rewrite"
        (Staged.stage
           (rewrite
              ~options:{ Rewriter.default_options with Rewriter.grouping = false }
              elf Frontend.select_jumps Trampoline.Empty)) ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg [ clock ] test in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.OLS.estimates (Analyze.one ols clock raw) with
          | Some (est :: _) ->
              printf "  %-28s %10.2f ms/run@." name (est /. 1e6)
          | Some [] | None -> printf "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Robustness corpus: the adversarial families                         *)
(* ------------------------------------------------------------------ *)

let robust_json : Json.t option ref = ref None

let bench_robust () =
  heading
    "Robustness corpus: adversarial families through the tactic ladder";
  let module Matrix = E9_check.Matrix in
  let module Adversary = E9_workload.Adversary in
  let scores = Matrix.run () in
  List.iter (fun s -> printf "  %a@." Matrix.pp_score s) scores;
  List.iter
    (fun (s : Matrix.score) ->
      let f = s.Matrix.family in
      record_row "robust"
        [ ("family", Json.Str f.Adversary.name);
          ("sites", Json.Int s.Matrix.sites);
          ("patched_pct", Json.Float s.Matrix.patched_pct);
          ("floor_pct", Json.Float f.Adversary.floor_pct);
          ("pass", Json.Bool (Matrix.passed s)) ])
    scores;
  robust_json := Some (Matrix.to_json scores);
  let failed = List.filter (fun s -> not (Matrix.passed s)) scores in
  printf "  %d/%d families pass@."
    (List.length scores - List.length failed)
    (List.length scores);
  if failed <> [] then begin
    Atomic.incr verify_checked;
    Atomic.incr verify_failed
  end

(* ------------------------------------------------------------------ *)
(* serve: the RPC daemon as a workload                                  *)
(* ------------------------------------------------------------------ *)

let service_json : Json.t option ref = ref None

(* Sustained request throughput through the rewriting service: D distinct
   binaries served cold (every emit a rewrite), then replayed twice warm
   (every emit a result-cache hit), client sessions fanned across
   domains. The replay hit-rate is an acceptance gate: the daemon's
   content-addressed cache must convert repeated binaries into hits. *)
let bench_serve () =
  heading "Rewriting-as-a-service: request throughput, latency, caching";
  let module Server = E9_rpc.Server in
  let module Harness = E9_rpc.Harness in
  let module Cache = E9_rpc.Cache in
  let distinct = if !smoke then 3 else 6 in
  let repeats = 3 in
  let spec = "patch jumps with counter" in
  let binaries =
    List.init distinct (fun i ->
        Elf_file.to_bytes
          (Codegen.generate
             { Codegen.default_profile with
               Codegen.name = Printf.sprintf "serve-%d" i;
               seed = Int64.of_int (300 + i);
               functions = (if !smoke then 25 else 60);
               iterations = 2 }))
  in
  let server = Server.create ~cache_capacity:64 () in
  let emit_verified (responses, _alive) =
    List.exists
      (fun line ->
        match Json.of_string line with
        | Ok j -> (
            match Json.member "result" j with
            | Some result ->
                Json.member "verified" result = Some (Json.Bool true)
            | None -> false)
        | Error _ -> false)
      responses
  in
  let run_phase sessions =
    par_map
      (fun raw -> emit_verified (Harness.run_session server (Harness.script ~spec raw)))
      sessions
  in
  let t0 = Unix.gettimeofday () in
  (* Cold: one session per distinct binary, concurrently. *)
  let cold = run_phase binaries in
  (* Warm replay: every binary again, (repeats - 1) more times — all
     sessions race, but every result is already cached. *)
  let warm = run_phase (List.concat (List.init (repeats - 1) (fun _ -> binaries))) in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun ok ->
      Atomic.incr verify_checked;
      if not ok then Atomic.incr verify_failed)
    (cold @ warm);
  let started, closed = Server.sessions server in
  let rc = Cache.stats (Server.ctx server).E9_rpc.Session.result_cache in
  let dc = Cache.stats (Server.ctx server).E9_rpc.Session.decode_cache in
  let bypassed = Atomic.get (Server.ctx server).E9_rpc.Session.bypassed in
  let hit_rate = Cache.hit_rate rc in
  let req_per_s =
    if wall > 0.0 then float_of_int (Server.requests server) /. wall else 0.0
  in
  let p50 = Server.latency_percentile server 0.50 in
  let p99 = Server.latency_percentile server 0.99 in
  printf
    "  %d sessions (%d binaries x %d), %d requests in %.2fs — %.0f req/s; \
     p50 %.1f ms, p99 %.1f ms@."
    closed distinct repeats (Server.requests server) wall req_per_s
    (1000.0 *. p50) (1000.0 *. p99);
  printf
    "  result cache: %d/%d hits (%.0f%%); decode cache: %d/%d hits, %d \
     bypassed@."
    rc.Cache.hits (rc.Cache.hits + rc.Cache.misses) (100.0 *. hit_rate)
    dc.Cache.hits (dc.Cache.hits + dc.Cache.misses) bypassed;
  record_row "serve"
    [ ("sessions", Json.Int closed);
      ("requests", Json.Int (Server.requests server));
      ("req_per_s", Json.Float req_per_s);
      ("p50_ms", Json.Float (1000.0 *. p50));
      ("p99_ms", Json.Float (1000.0 *. p99));
      ("hit_rate", Json.Float hit_rate) ];
  (* Fold the daemon's per-phase spans (rpc_decode/rpc_rewrite/rpc_verify,
     per-method rpc_* timings) into the global rollup. *)
  Mutex.protect obs_lock (fun () ->
      Obs.Agg.merge_into ~dst:obs_agg (Server.agg server));
  service_json :=
    Some
      (Json.Obj
         [ ("sessions", Json.Int closed);
           ("requests", Json.Int (Server.requests server));
           ("errors", Json.Int (Server.errors server));
           ("req_per_s", Json.Float req_per_s);
           ("p50_ms", Json.Float (1000.0 *. p50));
           ("p99_ms", Json.Float (1000.0 *. p99));
           ("hit_rate", Json.Float hit_rate);
           ("result_cache", Cache.stats_json rc);
           ("decode_cache",
            (* Result-cache hits never consult the decode cache; the
               bypass count is what keeps its hit rate honest here. *)
            match Cache.stats_json dc with
            | Json.Obj fields ->
                Json.Obj (fields @ [ ("bypassed", Json.Int bypassed) ])
            | j -> j) ]);
  if started <> closed then begin
    printf "  FAIL: %d sessions started, %d closed@." started closed;
    Atomic.incr verify_checked;
    Atomic.incr verify_failed
  end;
  (* Acceptance gate: the replay workload must hit at least half the
     time (it is 2/3 by construction — 2 warm emits per 1 cold). *)
  if hit_rate < 0.5 then begin
    printf "  FAIL: replay hit-rate %.2f < 0.5@." hit_rate;
    Atomic.incr verify_checked;
    Atomic.incr verify_failed
  end

(* ------------------------------------------------------------------ *)
(* Incremental rewriting: the chunked plan cache, warm vs cold         *)
(* ------------------------------------------------------------------ *)

module Plan = E9_core.Plan

let incremental_json : Json.t option ref = ref None

(* An N-revision series with ~1% text churn per step: revision r+1 is
   revision r with a few whole instructions overwritten by NOPs (edits at
   decoded-site boundaries, so every revision stays a valid linear-sweep
   input). Each revision is rewritten twice under identical chunked
   options — cold against a fresh plan store, warm against the store the
   series has been populating — and the gate is that the warm pass both
   reproduces the cold bytes exactly and runs at least twice as fast,
   because unchanged chunks replay their plans instead of re-running
   decode and tactic search (O(changed bytes), DESIGN.md §14). Timed runs
   are sequential: par_map would make wall-clock meaningless. *)
let bench_incremental () =
  heading "Incremental rewriting: chunked plan cache, warm vs cold";
  let functions = if !smoke then 500 else 1500 in
  let revisions = if !smoke then 4 else 6 in
  let prof =
    { Codegen.default_profile with
      Codegen.seed = 77L; functions; iterations = 1 }
  in
  let elf0 = Codegen.generate prof in
  let base_bytes = Elf_file.to_bytes elf0 in
  let text, sites = Frontend.disassemble elf0 in
  (* Churn sites from the base decode: overwriting an instruction with
     one-byte NOPs preserves every other instruction boundary, so the
     base site table stays valid for deriving later revisions too. *)
  let editable =
    Array.of_list (List.filter (fun s -> s.Frontend.len >= 2) sites)
  in
  let churn_budget = max 16 (text.Frontend.size / 100) in
  (* Localized churn, like a real edit: one contiguous run of
     instructions per revision, ~1% of the text. Scattering the same
     budget uniformly would touch every chunk and leave nothing to
     replay. *)
  let revise rng bytes =
    let b = Bytes.copy bytes in
    let start = Random.State.int rng (Array.length editable) in
    let churned = ref 0 in
    let i = ref start in
    while !churned < churn_budget && !i < Array.length editable do
      let s = editable.(!i) in
      let off = text.Frontend.offset + (s.Frontend.addr - text.Frontend.base) in
      Bytes.fill b off s.Frontend.len '\x90';
      churned := !churned + s.Frontend.len;
      incr i
    done;
    b
  in
  let rng = Random.State.make [| 0xe9; 77 |] in
  let series =
    let rec grow acc bytes n =
      if n = 0 then List.rev acc
      else
        let next = revise rng bytes in
        grow (next :: acc) next (n - 1)
    in
    base_bytes :: grow [] base_bytes (revisions - 1)
  in
  let options =
    { Rewriter.default_options with
      Rewriter.chunking = Some Chunker.default }
  in
  let fresh_store () = E9_core.Cache.create ~capacity:Plan.capacity () in
  let plan_of store =
    { Plan.store;
      (* select/template are fixed for the whole experiment, so a
         constant fragment key is exact. *)
      spec_key = (fun ~lo:_ ~len:_ -> "bench:jumps/empty") }
  in
  let rewrite ~plan elf =
    let t0 = Unix.gettimeofday () in
    let r =
      Rewriter.run ~options ?jobs:!jobs_opt ~plan elf
        ~select:Frontend.select_jumps
        ~template:(fun _ -> Trampoline.Empty)
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let warm_store = fresh_store () in
  printf "  %3s %9s %9s %9s  %5s %5s %5s  %s@." "rev" "cold s" "warm s"
    "speedup" "hit" "miss" "conf" "bytes";
  let cold_total = ref 0.0 and warm_total = ref 0.0 in
  let hits = ref 0 and misses = ref 0 and conflicts = ref 0 in
  let all_identical = ref true in
  let rows =
    List.mapi
      (fun rev bytes ->
        let elf = Elf_file.of_bytes bytes in
        let cold, cold_s = rewrite ~plan:(plan_of (fresh_store ())) elf in
        let warm, warm_s = rewrite ~plan:(plan_of warm_store) elf in
        let identical =
          Bytes.equal
            (Elf_file.to_bytes cold.Rewriter.output)
            (Elf_file.to_bytes warm.Rewriter.output)
        in
        verify_rewrite (Printf.sprintf "incremental(rev %d, warm)" rev) elf
          warm;
        if not identical then all_identical := false;
        (* Revision 0 populates the warm store (all misses); the
           incremental claim is about the replays after it. *)
        if rev > 0 then begin
          cold_total := !cold_total +. cold_s;
          warm_total := !warm_total +. warm_s
        end;
        hits := !hits + warm.Rewriter.plan_hits;
        misses := !misses + warm.Rewriter.plan_misses;
        conflicts := !conflicts + warm.Rewriter.plan_conflicts;
        let speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
        record_row "incremental"
          [ ("rev", Json.Int rev);
            ("cold_s", Json.Float cold_s);
            ("warm_s", Json.Float warm_s);
            ("speedup", Json.Float speedup);
            ("plan_hits", Json.Int warm.Rewriter.plan_hits);
            ("plan_misses", Json.Int warm.Rewriter.plan_misses);
            ("plan_conflicts", Json.Int warm.Rewriter.plan_conflicts);
            ("identical", Json.Bool identical) ];
        printf "  %3d %9.3f %9.3f %8.2fx  %5d %5d %5d  %s@." rev cold_s
          warm_s speedup warm.Rewriter.plan_hits warm.Rewriter.plan_misses
          warm.Rewriter.plan_conflicts
          (if identical then "identical" else "DIFFERS");
        Json.Obj
          [ ("rev", Json.Int rev);
            ("cold_s", Json.Float cold_s);
            ("warm_s", Json.Float warm_s);
            ("speedup", Json.Float speedup);
            ("plan_hits", Json.Int warm.Rewriter.plan_hits);
            ("plan_misses", Json.Int warm.Rewriter.plan_misses);
            ("plan_conflicts", Json.Int warm.Rewriter.plan_conflicts);
            ("identical", Json.Bool identical) ])
      series
  in
  let speedup =
    if !warm_total > 0.0 then !cold_total /. !warm_total else 0.0
  in
  printf
    "  warm total %.3fs vs cold %.3fs over %d incremental revisions: \
     %.2fx (plans: %d hits, %d misses, %d conflicts)@."
    !warm_total !cold_total (revisions - 1) speedup !hits !misses !conflicts;
  incremental_json :=
    Some
      (Json.Obj
         [ ("revisions", Json.Int revisions);
           ("churn_bytes", Json.Int churn_budget);
           ("text_bytes", Json.Int text.Frontend.size);
           ("jobs",
            Json.Int (match !jobs_opt with Some j -> j | None -> 1));
           ("cold_s", Json.Float !cold_total);
           ("warm_s", Json.Float !warm_total);
           ("warm_speedup", Json.Float speedup);
           ("plan_hits", Json.Int !hits);
           ("plan_misses", Json.Int !misses);
           ("plan_conflicts", Json.Int !conflicts);
           ("identical", Json.Bool !all_identical);
           ("series", Json.List rows) ]);
  if not !all_identical then begin
    printf "  FAIL: warm output differs from cold@.";
    Atomic.incr verify_checked;
    Atomic.incr verify_failed
  end;
  if speedup < 2.0 then begin
    printf "  FAIL: warm speedup %.2fx < 2x@." speedup;
    Atomic.incr verify_checked;
    Atomic.incr verify_failed
  end

(* ------------------------------------------------------------------ *)
(* Tool frontend: builtin matcher x patch pairs over the corpus        *)
(* ------------------------------------------------------------------ *)

(* Captured for the [tool] object in BENCH_throughput.json. *)
let tool_json : Json.t option ref = ref None

let bench_tool () =
  heading
    "Tool frontend: builtin matcher x patch pairs over the robustness corpus";
  let module Adversary = E9_workload.Adversary in
  let module Tool = E9_tool.Tool in
  let module Static = E9_check.Static in
  let module Trace = E9_check.Trace in
  (* One pair per builtin patch, plus the call-ABI pairs the acceptance
     bar names: a clean call with three static arguments and a naked
     call (verified behaviorally — its [call] writes the guest stack by
     design, so the trace oracle is the wrong instrument for it). *)
  let pairs =
    [ ("jumps", "print");
      ("all", "count");
      ("returns", "trap");
      ("heap-writes", "lowfat");
      ("calls", "call:clean record(addr,size,3)");
      ("mnemonic mov and op[0].type == mem", "empty");
      ("returns", "call:naked counter()") ]
  in
  let families = cut 3 Adversary.families in
  let prepare (f : Adversary.family) =
    let generated = Codegen.generate f.Adversary.profile in
    let holes = Codegen.islands generated in
    let elf =
      if f.Adversary.strip then
        Elf_file.of_bytes (Elf_file.to_bytes_stripped generated)
      else generated
    in
    let frontend =
      match holes with
      | [] -> None
      | holes -> Some (fun e -> Frontend.disassemble_excluding ~holes e)
    in
    (elf, holes, frontend)
  in
  let trace_config = { Cpu.default_config with Cpu.fuel = 50_000_000 } in
  let tasks =
    List.concat_map (fun pair -> List.map (fun f -> (pair, f)) families) pairs
  in
  let score ((m, p), (f : Adversary.family)) =
    let rules = [ Tool.rule_of ~m ~p () ] in
    let naked =
      match (List.hd rules).Tool.patch with
      | Tool.Call { mode = Trampoline.Naked; _ } -> true
      | _ -> false
    in
    let elf, holes, frontend = prepare f in
    let options =
      { Rewriter.default_options with
        Rewriter.tactics =
          { Tactics.default_options with Tactics.b0_fallback = true };
        reserve_below_base = f.Adversary.profile.Codegen.shared_object;
        keep_ranges = holes }
    in
    let run options j = Tool.run ~options ~jobs:j ?frontend elf rules in
    let res = run options 1 in
    let r = res.Tool.rewrite in
    let rt = res.Tool.runtime in
    (* The identity leg splits the family's text into small chunks, so
       jobs 4 runs the parallel search against jobs 1's. *)
    let jobs_identical =
      let chunked =
        { options with Rewriter.chunking = Some E9_check.Fuzz.small_chunking }
      in
      let c1 = (run chunked 1).Tool.rewrite
      and c4 = (run chunked 4).Tool.rewrite in
      Bytes.equal
        (Elf_file.to_bytes c1.Rewriter.output)
        (Elf_file.to_bytes c4.Rewriter.output)
      && c1.Rewriter.stats = c4.Rewriter.stats
    in
    let static_err =
      match
        Static.verify ~holes ~original:rt.Tool.augmented r.Rewriter.output
      with
      | Ok _ -> None
      | Error e -> Some (Format.asprintf "%a" Static.pp_error e)
    in
    let trace_err =
      if naked then
        (* Behavioral equivalence: same outcome and output streams. *)
        let orig = Machine.run ~config:trace_config rt.Tool.augmented in
        let patched = Machine.run ~config:trace_config r.Rewriter.output in
        if Machine.equivalent orig patched then None
        else Some "naked call: outcome/output diverged"
      else
        match
          Trace.compare_runs ~config:trace_config ~holes
            ~instr_ranges:rt.Tool.instr_ranges ~original:rt.Tool.augmented
            r.Rewriter.output
        with
        | Ok _ -> None
        | Error msg -> Some msg
    in
    (m, p, f.Adversary.name, Stats.total r.Rewriter.stats, jobs_identical,
     static_err, trace_err)
  in
  let scores = par_map score tasks in
  let rows =
    List.map
      (fun (m, p, fam, sites, ji, serr, terr) ->
        let pass = ji && serr = None && terr = None in
        Atomic.incr verify_checked;
        if not pass then begin
          Atomic.incr verify_failed;
          printf "  FAIL -M %s -P %s on %s: %s@." m p fam
            (match (serr, terr) with
            | Some e, _ -> "static: " ^ e
            | None, Some e -> "trace: " ^ e
            | None, None -> "jobs 1 vs 4 bytes differ")
        end;
        record_row "tool"
          [ ("match", Json.Str m); ("patch", Json.Str p);
            ("family", Json.Str fam); ("sites", Json.Int sites);
            ("pass", Json.Bool pass) ];
        Json.Obj
          [ ("match", Json.Str m); ("patch", Json.Str p);
            ("family", Json.Str fam); ("sites", Json.Int sites);
            ("jobs_identical", Json.Bool ji);
            ("static",
             Json.Str (match serr with None -> "ok" | Some e -> e));
            ("trace",
             Json.Str
               (match terr with
               | None -> if ji then "ok" else "ok"
               | Some e -> e));
            ("pass", Json.Bool pass) ])
      scores
  in
  let passed =
    List.length
      (List.filter
         (fun (_, _, _, _, ji, s, t) -> ji && s = None && t = None)
         scores)
  in
  printf "  %d pairs x %d families: %d/%d pass@." (List.length pairs)
    (List.length families) passed (List.length scores);
  List.iter
    (fun (m, p, fam, sites, _, _, _) ->
      printf "    %-42s %-34s %-22s %6d sites@."
        (Printf.sprintf "-M %s" m) (Printf.sprintf "-P %s" p) fam sites)
    scores;
  tool_json :=
    Some
      (Json.Obj
         [ ("pairs", Json.Int (List.length pairs));
           ("families", Json.Int (List.length families));
           ("passed", Json.Int passed);
           ("total", Json.Int (List.length scores));
           ("rows", Json.List rows) ])

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all =
  [ ("table1", bench_table1);
    ("compare", bench_compare);
    ("robustness", bench_robustness);
    ("figure4", bench_figure4);
    ("figure5", bench_figure5);
    ("grouping", bench_grouping);
    ("ablation", bench_ablation);
    ("pie", bench_pie);
    ("b0", bench_b0);
    ("scalability", bench_scalability);
    ("parallel", bench_parallel);
    ("faults", bench_faults);
    ("calibration", bench_calibration);
    ("robust", bench_robust);
    ("iset", bench_iset);
    ("serve", bench_serve);
    ("incremental", bench_incremental);
    ("tool", bench_tool);
    ("bechamel", bench_bechamel) ]

let usage () =
  printf "usage: main.exe [--serial] [--domains N] [--jobs N] [--smoke] \
          [--json PATH] [experiment ...]@.";
  printf "experiments: %s@." (String.concat " " (List.map fst all));
  exit 1

let rec parse_args = function
  | [] -> []
  | "--" :: rest -> parse_args rest
  | "--serial" :: rest ->
      serial := true;
      parse_args rest
  | "--smoke" :: rest ->
      smoke := true;
      parse_args rest
  | "--json" :: path :: rest ->
      json_path := Some path;
      parse_args rest
  | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d when d >= 1 ->
          domains_opt := Some d;
          parse_args rest
      | Some _ | None ->
          printf "--domains expects a positive integer, got %s@." n;
          usage ())
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
          jobs_opt := Some j;
          parse_args rest
      | Some _ | None ->
          printf "--jobs expects a positive integer, got %s@." n;
          usage ())
  | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      printf "unknown flag %s@." flag;
      usage ()
  | name :: rest -> name :: parse_args rest

let throughput_path = "BENCH_throughput.json"

let () =
  let names = parse_args (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    match names with
    | [] -> all
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name all with
            | Some f -> (name, f)
            | None ->
                printf "unknown benchmark %s; available: %s@." name
                  (String.concat " " (List.map fst all));
                exit 1)
          names
  in
  let t0 = Unix.gettimeofday () in
  let exp_times =
    List.map
      (fun (name, f) ->
        let s = Unix.gettimeofday () in
        f ();
        (name, Unix.gettimeofday () -. s))
      chosen
  in
  let wall = Unix.gettimeofday () -. t0 in
  let tp =
    { Stats.wall_s = wall;
      emu_insns = Atomic.get emu_insns;
      emu_wall_s = float_of_int (Atomic.get emu_wall_us) /. 1e6;
      block_hits = Atomic.get emu_block_hits;
      block_misses = Atomic.get emu_block_misses;
      block_invalidations = Atomic.get emu_block_invalidations;
      domains = domains () }
  in
  printf "@.[throughput: %a]@." Stats.pp_throughput tp;
  printf "@.[tactics: %a]@." Obs.Agg.pp obs_agg;
  Json.to_file throughput_path
    (Json.Obj
       [ ("schema", Json.Str "e9repro-bench-throughput/1");
         ("domains", Json.Int tp.Stats.domains);
         ("serial", Json.Bool !serial);
         ("smoke", Json.Bool !smoke);
         ("wall_s", Json.Float tp.Stats.wall_s);
         ("emu",
          Json.Obj
            [ ("insns", Json.Int tp.Stats.emu_insns);
              ("wall_s", Json.Float tp.Stats.emu_wall_s);
              ("insns_per_sec", Json.Float (Stats.insns_per_sec tp));
              ("block_hits", Json.Int tp.Stats.block_hits);
              ("block_misses", Json.Int tp.Stats.block_misses);
              ("block_hit_rate", Json.Float (Stats.block_hit_rate tp));
              ("block_invalidations", Json.Int tp.Stats.block_invalidations) ]);
         ("jobs",
          Json.Int (match !jobs_opt with Some j -> j | None -> 1));
         ("tactics", Obs.Agg.tactics_json obs_agg);
         ("timings", Obs.Agg.spans_json obs_agg);
         ("parallel",
          (match !parallel_json with
          | Some j -> j
          | None -> Json.Obj []));
         ("iset",
          (match !iset_json with Some j -> j | None -> Json.List []));
         ("faults",
          (match !faults_json with
          | Some j -> j
          | None -> Json.Obj []));
         ("robustness",
          (match !robust_json with
          | Some j -> j
          | None -> Json.Obj []));
         ("service",
          (match !service_json with
          | Some j -> j
          | None -> Json.Obj []));
         ("incremental",
          (match !incremental_json with
          | Some j -> j
          | None -> Json.Obj []));
         ("tool",
          (match !tool_json with Some j -> j | None -> Json.Obj []));
         ("verify",
          Json.Obj
            [ ("checked", Json.Int (Atomic.get verify_checked));
              ("passed",
               Json.Int
                 (Atomic.get verify_checked - Atomic.get verify_failed)) ]);
         ("experiments",
          Json.List
            (List.map
               (fun (name, dt) ->
                 Json.Obj
                   [ ("name", Json.Str name); ("wall_s", Json.Float dt) ])
               exp_times)) ]);
  (match !json_path with
  | Some path -> Json.to_file path (rows_json ())
  | None -> ());
  printf "@.[verify: %d/%d rewrites statically verified]@."
    (Atomic.get verify_checked - Atomic.get verify_failed)
    (Atomic.get verify_checked);
  printf "@.[total bench time: %.1fs]@." wall;
  if Atomic.get verify_failed > 0 then exit 1
