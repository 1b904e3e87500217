(* The evaluation harness: regenerates every table and figure of the paper
   on the synthetic suite (see DESIGN.md §4 for the experiment index).

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- one experiment
     ... robustness | figure4 | figure5 | grouping | ablation | pie | b0
     ... scalability | calibration | iset | serve | tool | bechamel

   Flags (EXPERIMENTS.md "Reproducing"):
     --domains N    fan tasks across exactly N domains (1 is the serial
                    baseline)
     --smoke        reduced sizes/trial counts, for CI timeouts

   Independent (app × tactic-config) rewrite+emulate tasks are fanned
   across domains with E9_bits.Pool; results are collected per task and
   printed in input order, so the output is byte-identical to a serial run
   (only wall-clock changes — DESIGN.md §7). After every run each
   experiment's record is merged into BENCH_throughput.json under the
   experiment's name, leaving the other experiments' records in place.
   A record holds the rows the experiment's table printed and the rollup
   of everything it ran: rewrites (tactics, phase spans), emulations
   (the [emulate] span and [emu.*] counters), static and trace
   verifications ([verify.*]) and failed gates ([gate.failed]).

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

let smoke = ref false
let domains_opt : int option ref = ref None

let domains () =
  match !domains_opt with Some d -> d | None -> Pool.default_domains ()

(* Fan independent tasks across domains; results come back in input order,
   so the caller's sequential printing is deterministic. *)
let par_map f xs = Pool.map ~domains:(domains ()) f xs

(* Smoke mode trims task lists so CI can run under a tight timeout. *)
let cut n xs = if !smoke then List.filteri (fun i _ -> i < n) xs else xs

(* ------------------------------------------------------------------ *)
(* One record per experiment: its rows and its rollup                  *)
(* ------------------------------------------------------------------ *)

module Json = E9_obs.Json
module Obs = E9_obs.Obs

(* The running experiment's rows, newest first: its [result] in
   BENCH_throughput.json. Rows are recorded from the serial print phase
   (never from parallel tasks), in print order. *)
let rows : Json.t list ref = ref []

let record_row fields = rows := Json.Obj fields :: !rows

(* The running experiment's rollup (the main loop starts a fresh one per
   experiment). Every rewrite, emulation, verification and gate reports
   into it through [rolled]: each call gets its own aggregator sink
   (constant memory), merged here under a lock, so parallel tasks add up.
   The bechamel micro-benchmarks stay detached so they keep measuring
   the bare (sink-less) hot path. *)
let obs_agg = ref (Obs.Agg.create ())
let obs_lock = Mutex.create ()

let merge agg =
  Mutex.protect obs_lock (fun () -> Obs.Agg.merge_into ~dst:!obs_agg agg)

let rolled f =
  let obs = Obs.aggregator () in
  let r = f obs in
  merge (Obs.agg obs);
  r

let traced_run ?options ?holes elf ~select ~template =
  rolled (fun obs -> Rewriter.run ?options ~obs ?holes elf ~select ~template)

(* Every guest run is an [emulate] span plus [emu.*] counters. *)
let run_emu ?config ?make_allocator ?libs elf =
  rolled (fun obs ->
      let r =
        Obs.span obs "emulate" (fun () ->
            Machine.run ?config ?make_allocator ?libs elf)
      in
      Obs.counter obs ~name:"emu.runs" ~value:1;
      Obs.counter obs ~name:"emu.insns" ~value:r.Cpu.insns;
      Obs.counter obs ~name:"emu.block_hits" ~value:r.Cpu.block_hits;
      Obs.counter obs ~name:"emu.block_misses" ~value:r.Cpu.block_misses;
      Obs.counter obs ~name:"emu.block_invalidations"
        ~value:r.Cpu.block_invalidations;
      r)

(* A check that is not a static verification (a hit-rate floor, a
   session count, a tool pair's trace oracle): a failure prints its
   reason and fails the bench run. *)
let gate ok reason =
  if not ok then begin
    printf "  FAIL: %s@." reason;
    rolled (fun obs -> Obs.counter obs ~name:"gate.failed" ~value:1)
  end

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

(* Static verification: every measured rewrite is checked by the
   E9_check verifier ([verify.checked]), and a single rejection
   ([verify.failed]) fails the whole bench run. The Reloc-based
   robustness benches deliberately produce broken binaries and are
   exempt. *)
let verify name ?holes ~original output =
  rolled (fun obs ->
      Obs.counter obs ~name:"verify.checked" ~value:1;
      match
        Obs.span obs "verify" (fun () ->
            E9_check.Static.verify ?holes ~original output)
      with
      | Ok _ -> None
      | Error e ->
          Obs.counter obs ~name:"verify.failed" ~value:1;
          let msg = Format.asprintf "%a" E9_check.Static.pp_error e in
          Format.eprintf "[verify] %s rejected: %s@." name msg;
          Some msg)

(* The generator's data holes (the ChromeMain pool of §6.2) are what every
   rewrite of a generated binary decodes around. *)
let verify_rewrite name elf (r : Rewriter.result) =
  ignore
    (verify name ~holes:(Codegen.holes elf) ~original:elf r.Rewriter.output)

(* Trace verification: the trace oracle runs the original and the patched
   program and compares their traces ([verify.traced]); a divergence
   counts as [verify.failed] and fails the bench run, like a static
   rejection. *)
let trace_verify name ~holes ~original output =
  rolled (fun obs ->
      Obs.counter obs ~name:"verify.traced" ~value:1;
      match
        Obs.span obs "trace" (fun () ->
            E9_check.Trace.compare_runs ~holes ~original output)
      with
      | Ok _ -> ()
      | Error m ->
          Obs.counter obs ~name:"verify.failed" ~value:1;
          Format.eprintf "[verify] %s diverged: %s@." name m)

(* Rewrite with [select]/[template] and measure one Table 1 line. The
   rewrite is verified statically and, unless it runs under its own
   allocator, by the trace oracle too. The one such caller is the
   LowFat run of Figure 5, whose checks spill registers to the program
   stack: not trace-transparent, so the oracle would rightly report a
   divergence (DESIGN.md §8.2). *)
let measure_app ?(options = Rewriter.default_options) ?make_allocator
    ~select ~template elf (orig : Cpu.result) =
  let holes = Codegen.holes elf in
  let r = traced_run ~options ~holes elf ~select ~template in
  verify_rewrite "measure_app" elf r;
  if make_allocator = None then
    trace_verify "measure_app" ~holes ~original:elf r.Rewriter.output;
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
      record_row
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
            traced_run ~options ~holes:(Codegen.holes elf) elf ~select
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
      record_row
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
      record_row
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
      record_row
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
      record_row
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
          record_row
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
      record_row
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
      ("+T3 (full)", fun t -> t) ]
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
      record_row
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
      record_row
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
  record_row
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
    record_row
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
      record_row
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
      record_row
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
      record_row
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
      record_row
        [ ("small_write_bias", Json.Float sw); ("base_pct", Json.Float base) ];
      printf "  small=%.1f -> Base=%.2f%%@." sw base)
    a2

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Bechamel's OLS estimate of [f]'s cost in ns per run, if it fits one. *)
let estimate ~quota name f =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
  Hashtbl.fold
    (fun _ r est ->
      match Analyze.OLS.estimates (Analyze.one ols clock r) with
      | Some (e :: _) -> Some e
      | Some [] | None -> est)
    raw None

(* Iset: augmented tree vs the linear-scan baseline. *)
let bench_iset () =
  heading "Iset: O(log n) strided query vs the linear-scan baseline";
  let sizes = [ 100; 1_000; 10_000; 100_000 ] in
  printf "  %9s %14s %16s %9s@." "intervals" "tree ns/run" "linear ns/run"
    "speedup";
  List.iter
    (fun n ->
      (* The allocator's worst query shape: every inter-blocker gap is
         one byte too small for the request, so the linear-scan baseline
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
      let tree_query () =
        E9_bits.Iset.find_free_strided tree ~size:16 ~lo:0x10000 ~hi ~stride:64
      in
      let linear_query () =
        Iset_linear.find_free_strided lin ~size:16 ~lo:0x10000 ~hi ~stride:64
      in
      if tree_query () <> linear_query () then
        failwith (Printf.sprintf "iset@%d: tree and linear disagree" n);
      let ns name f =
        Option.value ~default:0.0
          (estimate ~quota:0.25
             (Printf.sprintf "iset-%s-%d" name n)
             (fun () -> ignore (f ())))
      in
      let tree_ns = ns "tree" tree_query in
      let linear_ns = ns "linear" linear_query in
      let speedup = if tree_ns > 0.0 then linear_ns /. tree_ns else 0.0 in
      record_row
        [ ("intervals", Json.Int n);
          ("tree_ns", Json.Float tree_ns);
          ("linear_ns", Json.Float linear_ns);
          ("speedup", Json.Float speedup) ];
      printf "  %9d %14.1f %16.1f %8.1fx@." n tree_ns linear_ns speedup)
    sizes

(* Rewriter throughput, one micro-benchmark per table/figure. *)
let bench_bechamel () =
  heading "Bechamel: rewriter micro-benchmarks (one per table/figure)";
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
  (* T3's J_patch query shape: a strided search over a
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
    [ ("iset-find-free-strided",
       fun () ->
         ignore
           (E9_bits.Iset.find_free_strided strided_set ~size:16 ~lo:0x10000
              ~hi:0x40000 ~stride:64));
      ("table1-A1-rewrite", rewrite elf Frontend.select_jumps Trampoline.Empty);
      ("table1-A2-rewrite",
       rewrite elf Frontend.select_heap_writes Trampoline.Empty);
      ("figure4-dromaeo-rewrite",
       rewrite dromaeo_elf Frontend.select_heap_writes Trampoline.Empty);
      ("figure5-lowfat-rewrite",
       rewrite elf Frontend.select_heap_writes Trampoline.Lowfat_check);
      ("grouping-naive-rewrite",
       rewrite
         ~options:{ Rewriter.default_options with Rewriter.grouping = false }
         elf Frontend.select_jumps Trampoline.Empty) ]
  in
  List.iter
    (fun (name, f) ->
      match estimate ~quota:0.5 name f with
      | Some ns ->
          record_row
            [ ("name", Json.Str name); ("ms_per_run", Json.Float (ns /. 1e6)) ];
          printf "  %-28s %10.2f ms/run@." name (ns /. 1e6)
      | None ->
          record_row [ ("name", Json.Str name); ("ms_per_run", Json.Null) ];
          printf "  %-28s (no estimate)@." name)
    tests

(* ------------------------------------------------------------------ *)
(* serve: the RPC daemon as a workload                                  *)
(* ------------------------------------------------------------------ *)


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
  record_row
    [ ("sessions", Json.Int closed);
      ("requests", Json.Int (Server.requests server));
      ("errors", Json.Int (Server.errors server));
      ("req_per_s", Json.Float req_per_s);
      ("p50_ms", Json.Float (1000.0 *. p50));
      ("p99_ms", Json.Float (1000.0 *. p99));
      ("hit_rate", Json.Float hit_rate);
      ("result_cache", Cache.stats_json rc);
      ("decode_cache",
       (* Result-cache hits never consult the decode cache; the bypass
          count is what keeps its hit rate honest here. *)
       match Cache.stats_json dc with
       | Json.Obj fields ->
           Json.Obj (fields @ [ ("bypassed", Json.Int bypassed) ])
       | j -> j) ];
  (* Fold the daemon's per-phase spans (rpc_decode/rpc_rewrite/rpc_verify,
     per-method rpc_* timings) into the experiment's rollup. *)
  merge (Server.agg server);
  (* Gates: every session's emit came back verified by the daemon, every
     session closed, and the replay workload hit at least half the time
     (it is 2/3 by construction — 2 warm emits per 1 cold). *)
  List.iteri
    (fun i ok -> gate ok (Printf.sprintf "session %d: emit not verified" i))
    (cold @ warm);
  gate (started = closed)
    (Printf.sprintf "%d sessions started, %d closed" started closed);
  gate (hit_rate >= 0.5) (Printf.sprintf "replay hit-rate %.2f < 0.5" hit_rate)

(* ------------------------------------------------------------------ *)
(* Tool frontend: builtin matcher x patch pairs over the corpus        *)
(* ------------------------------------------------------------------ *)


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
    let elf, holes = E9_check.Matrix.prepare f in
    let options = E9_check.Matrix.options_of f in
    let res = rolled (fun obs -> Tool.run ~options ~obs ~holes elf rules) in
    let r = res.Tool.rewrite in
    let rt = res.Tool.runtime in
    let static_err =
      verify
        (Printf.sprintf "tool -M %s -P %s on %s" m p f.Adversary.name)
        ~holes ~original:rt.Tool.augmented r.Rewriter.output
    in
    let trace_err =
      if naked then
        (* Behavioral equivalence: same outcome and output streams. *)
        let orig = run_emu ~config:trace_config rt.Tool.augmented in
        let patched = run_emu ~config:trace_config r.Rewriter.output in
        if Machine.equivalent orig patched then None
        else Some "naked call: outcome/output diverged"
      else
        (* The trace oracle's two runs; it reports instructions only
           when the traces agree. *)
        rolled (fun obs ->
            Obs.counter obs ~name:"emu.runs" ~value:2;
            match
              Obs.span obs "emulate" (fun () ->
                  Trace.compare_runs ~config:trace_config ~holes
                    ~instr_ranges:rt.Tool.instr_ranges
                    ~original:rt.Tool.augmented r.Rewriter.output)
            with
            | Ok st ->
                Obs.counter obs ~name:"emu.insns"
                  ~value:(st.Trace.insns_original + st.Trace.insns_rewritten);
                None
            | Error msg -> Some msg)
    in
    (m, p, f.Adversary.name, Stats.total r.Rewriter.stats, static_err,
     trace_err)
  in
  let scores = par_map score tasks in
  let passed = ref 0 in
  List.iter
    (fun (m, p, fam, sites, serr, terr) ->
      let pass = serr = None && terr = None in
      if pass then incr passed;
      (* A static rejection is already a failed verification; the trace
         oracle is the pair's gate. *)
      Option.iter
        (fun e ->
          gate false (Printf.sprintf "-M %s -P %s on %s: trace: %s" m p fam e))
        terr;
      record_row
        [ ("match", Json.Str m); ("patch", Json.Str p);
          ("family", Json.Str fam); ("sites", Json.Int sites);
          ("static", Json.Str (Option.value ~default:"ok" serr));
          ("trace", Json.Str (Option.value ~default:"ok" terr));
          ("pass", Json.Bool pass) ])
    scores;
  printf "  %d pairs x %d families: %d/%d pass@." (List.length pairs)
    (List.length families) !passed (List.length scores);
  List.iter
    (fun (m, p, fam, sites, _, _) ->
      printf "    %-42s %-34s %-22s %6d sites@."
        (Printf.sprintf "-M %s" m) (Printf.sprintf "-P %s" p) fam sites)
    scores

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
    ("calibration", bench_calibration);
    ("iset", bench_iset);
    ("serve", bench_serve);
    ("tool", bench_tool);
    ("bechamel", bench_bechamel) ]

let usage () =
  printf "usage: main.exe [--domains N] [--smoke] [experiment ...]@.";
  printf "experiments: %s@." (String.concat " " (List.map fst all));
  exit 1

let rec parse_args = function
  | [] -> []
  | "--" :: rest -> parse_args rest
  | "--smoke" :: rest ->
      smoke := true;
      parse_args rest
  | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d when d >= 1 ->
          domains_opt := Some d;
          parse_args rest
      | Some _ | None ->
          printf "--domains expects a positive integer, got %s@." n;
          usage ())
  | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      printf "unknown flag %s@." flag;
      usage ()
  | name :: rest -> name :: parse_args rest

let throughput_path = "BENCH_throughput.json"

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The emulation an experiment (or the whole run) did, from its rollup. *)
type emu = {
  runs : int;
  insns : int;
  emu_s : float;
  hits : int;
  misses : int;
  flushes : int;
}

let emu_of agg =
  let c = Obs.Agg.counter_total agg in
  { runs = c "emu.runs";
    insns = c "emu.insns";
    emu_s = Obs.Agg.span_total agg "emulate";
    hits = c "emu.block_hits";
    misses = c "emu.block_misses";
    flushes = c "emu.block_invalidations" }

let insns_per_sec e = ratio (float_of_int e.insns) e.emu_s

let block_hit_rate e =
  ratio (float_of_int e.hits) (float_of_int (e.hits + e.misses))

(* One experiment's record: the run's settings, the rollup of what the
   experiment ran, and the rows its table printed. *)
let experiment_json ~wall_s agg rows =
  let c = Obs.Agg.counter_total agg in
  let e = emu_of agg in
  Json.Obj
    [ ("domains", Json.Int (domains ()));
      ("smoke", Json.Bool !smoke);
      ("wall_s", Json.Float wall_s);
      ("emu",
       Json.Obj
         [ ("runs", Json.Int e.runs);
           ("insns", Json.Int e.insns);
           ("wall_s", Json.Float e.emu_s);
           ("insns_per_sec", Json.Float (insns_per_sec e));
           ("block_hits", Json.Int e.hits);
           ("block_misses", Json.Int e.misses);
           ("block_hit_rate", Json.Float (block_hit_rate e));
           ("block_invalidations", Json.Int e.flushes) ]);
      ("tactics", Obs.Agg.tactics_json agg);
      ("timings", Obs.Agg.spans_json agg);
      ("verify",
       Json.Obj
         [ ("checked", Json.Int (c "verify.checked"));
           ("traced", Json.Int (c "verify.traced"));
           ("passed",
            Json.Int (c "verify.checked" + c "verify.traced" - c "verify.failed"))
         ]);
      ("gates_failed", Json.Int (c "gate.failed"));
      ("result", Json.List rows) ]

let schema = "e9repro-bench-throughput/3"

(* Merge this run's experiment records into the file, each under its
   experiment's name: keys of experiments that did not run are kept, so
   one run never clobbers another's record. A file of another schema (or
   none) starts empty. The write is atomic. *)
let write_throughput records =
  let kept =
    match In_channel.with_open_bin throughput_path In_channel.input_all with
    | exception Sys_error _ -> []
    | text -> (
        match Json.of_string text with
        | Ok (Json.Obj fields)
          when List.assoc_opt "schema" fields = Some (Json.Str schema) ->
            List.filter
              (fun (k, _) -> k <> "schema" && not (List.mem_assoc k records))
              fields
        | _ -> [])
  in
  E9_bits.Atomic_file.write throughput_path
    (Json.to_string
       (Json.Obj ((("schema", Json.Str schema) :: kept) @ records))
    ^ "\n")

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
  let run_agg = Obs.Agg.create () in
  let records =
    List.map
      (fun (name, f) ->
        let s0 = Unix.gettimeofday () in
        obs_agg := Obs.Agg.create ();
        rows := [];
        f ();
        Obs.Agg.merge_into ~dst:run_agg !obs_agg;
        ( name,
          experiment_json ~wall_s:(Unix.gettimeofday () -. s0) !obs_agg
            (List.rev !rows) ))
      chosen
  in
  let wall = Unix.gettimeofday () -. t0 in
  let e = emu_of run_agg in
  printf
    "@.[throughput: wall=%.2fs domains=%d emu: %d insns in %.2fs (%.2f \
     Minsns/s), block cache %.1f%% hit (%d hits / %d misses / %d flushes)]@."
    wall (domains ()) e.insns e.emu_s
    (insns_per_sec e /. 1e6)
    (100.0 *. block_hit_rate e)
    e.hits e.misses e.flushes;
  printf "@.[tactics: %a]@." Obs.Agg.pp run_agg;
  write_throughput records;
  let c = Obs.Agg.counter_total run_agg in
  let checked = c "verify.checked" and traced = c "verify.traced" in
  let failed = c "verify.failed" and gates_failed = c "gate.failed" in
  printf
    "@.[verify: %d/%d verifications passed (%d static, %d traced); %d gates \
     failed]@."
    (checked + traced - failed) (checked + traced) checked traced gates_failed;
  printf "@.[total bench time: %.1fs]@." wall;
  if failed > 0 || gates_failed > 0 then exit 1
