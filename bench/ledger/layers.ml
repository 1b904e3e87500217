(* Per-layer metrics of a traced run, named after the modules. Sources:
   the program's own spans and counters (an [Obs] aggregator handed to
   [Rewriter.run] / [Tool.run], and the daemon's rollup), the ledger's
   spans around each public call, and the layer counts results carry.
   Totals are per pass of the workload's op list; a layer the workload
   never reaches reads 0. *)

module Obs = E9_obs.Obs
module Json = E9_obs.Json

type metric = { name : string; value : float; unit : string; n : int }

let metric ?(n = 1) name unit value = { name; value; unit; n }
let pct a b = if b > 0.0 then 100.0 *. a /. b else 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let compute ~(plain : Work.run) ~(traced : Work.run)
    ~(report : Work.report) ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
  let passes = float_of_int traced.Work.passes_run in
  let ops = traced.Work.attempted in
  let per_pass v = v /. passes in
  let a = !Probe.agg in
  let span = Obs.Agg.span_total a in
  let counter name = float_of_int (Obs.Agg.counter_total a name) in
  let tactics = Obs.Agg.tactics_json a in
  let int_of = function Some (Json.Int n) -> float_of_int n | _ -> 0.0 in
  let tactic k = int_of (Json.member k tactics) in
  let rejects =
    match Json.member "rejects" tactics with Some (Json.Obj l) -> l | _ -> []
  in
  let reject k = int_of (List.assoc_opt k rejects) in
  let accepted =
    List.fold_left (fun acc k -> acc +. tactic k) 0.0 [ "b0"; "b1"; "b2"; "t1"; "t2"; "t3" ]
  in
  let attempts =
    accepted +. List.fold_left (fun acc (_, v) -> acc +. int_of (Some v)) 0.0 rejects
  in
  let sites = tactic "sites" in
  let total = Probe.total and ledger = Probe.span_s in
  let p50_ms name =
    match Probe.samples_of name with
    | [] -> metric ~n:0 (name ^ "_p50_ms") "ms" 0.0
    | xs -> metric ~n:(List.length xs) (name ^ "_p50_ms") "ms" (1000.0 *. Stat.median xs)
  in
  let search = span "tactic_search" in
  let phases =
    span "decode" +. search +. span "layout" +. span "serialize"
  in
  let rewrite_s = ledger "rewriter.run" +. ledger "tool.run" +. span "rpc_rewrite" in
  let trace_s = ledger "trace.compare_runs" and emu_s = ledger "machine.run" in
  let hits = total "emu.block_hits" and misses = total "emu.block_misses" in
  let plan_hits = total "plan.hits" and plan_misses = total "plan.misses" in
  let op_s, self_s = Probe.op_and_self () in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let layer ?n name unit v = metric ~n:(Option.value n ~default:ops) name unit v in
  [ layer "frontend.decode_s" "s" (per_pass (span "decode"));
    layer "frontend.selected" "count" (per_pass sites);
    layer "tactics.search_s" "s" (per_pass search);
    layer "tactics.serial_ref_s" "s" report.Work.serial_ref_s;
    layer "tactics.search_tax" "ratio" (ratio (per_pass search) report.Work.serial_ref_s);
    layer "tactics.attempts" "count" (per_pass attempts);
    layer "tactics.useful_pct" "%" (pct accepted attempts);
    layer "tactics.b1_b2_pct" "%" (pct (tactic "b1" +. tactic "b2") sites);
    layer "tactics.t1_pct" "%" (pct (tactic "t1") sites);
    layer "tactics.t2_pct" "%" (pct (tactic "t2") sites);
    layer "tactics.t3_pct" "%" (pct (tactic "t3") sites);
    layer "tactics.b0" "count" (per_pass (tactic "b0"));
    layer "tactics.rejects.dead_window" "count" (per_pass (reject "dead_window"));
    layer "tactics.rejects.stripe_blocked" "count" (per_pass (reject "stripe_blocked"));
    layer "tactics.rejects.alloc_conflict" "count" (per_pass (reject "alloc_conflict"));
    layer "rewriter.chunks" "count" (per_pass (total "rewriter.chunks"));
    layer "rewriter.deferred_sites" "count" (per_pass (counter "rewrite.deferred_sites"));
    layer "rewriter.setup_s" "s" (per_pass (total "rewriter.setup_s"));
    layer "rewriter.other_s" "s" (per_pass (max 0.0 (rewrite_s -. phases)));
    layer "layout.cursor_hit_pct" "%"
      (pct (counter "layout.cursor_hits")
         (counter "layout.cursor_hits" +. counter "layout.cursor_misses"));
    layer "layout.stripe_rotations" "count" (per_pass (counter "layout.stripe_rotations"));
    layer "layout.occupied_intervals" "count" (per_pass (total "layout.occupied_intervals"));
    layer "layout.trampoline_bytes" "B" (per_pass (total "layout.trampoline_bytes"));
    layer "pagegroup.s" "s" (per_pass (span "layout"));
    layer "pagegroup.mappings" "count" (per_pass (total "pagegroup.mappings"));
    layer "pagegroup.physical_blocks" "count" (per_pass (total "pagegroup.physical_blocks"));
    layer "elf.emit_s" "s" (per_pass (ledger "elf.to_bytes"));
    layer "elf.parse_s" "s" (per_pass (ledger "elf.of_bytes"));
    layer "static.verify_s" "s" (per_pass (ledger "static.verify"));
    layer "static.changed_bytes" "B" (per_pass (total "static.changed_bytes"));
    layer "static.trampolines_checked" "count" (per_pass (total "static.trampolines_checked"));
    layer "trace.s" "s" (per_pass trace_s);
    layer "trace.events" "count" (per_pass (total "trace.events"));
    layer "trace.events_per_s" "1/s" (ratio (total "trace.events") trace_s);
    layer "emu.s" "s" (per_pass emu_s);
    layer "emu.insns" "count" (per_pass (total "emu.insns"));
    layer "emu.minsns_per_s" "Minsn/s" (ratio (total "emu.insns" /. 1e6) emu_s);
    layer "emu.block_hit_pct" "%" (pct hits (hits +. misses));
    layer "emu.block_invalidations" "count" (per_pass (total "emu.block_invalidations"));
    layer "tool.run_s" "s" (per_pass (ledger "tool.run"));
    layer "tool.trampoline_bytes_per_site" "B"
      (ratio (total "tool.trampoline_bytes") (total "tool.sites"));
    p50_ms "rpc.binary";
    p50_ms "rpc.delta";
    p50_ms "rpc.patch";
    p50_ms "rpc.emit_hit";
    p50_ms "rpc.emit_miss";
    layer "rpc.result_hit_pct" "%"
      (pct (total "rpc.result_hits") (total "rpc.result_hits" +. total "rpc.result_misses"));
    layer "rpc.decode_hit_pct" "%"
      (pct (total "rpc.decode_hits") (total "rpc.decode_hits" +. total "rpc.decode_misses"));
    layer "rpc.decode_bypassed" "count" (per_pass (total "rpc.decode_bypassed"));
    layer "rpc.decode_s" "s" (per_pass (span "rpc_decode"));
    layer "rpc.rewrite_s" "s" (per_pass (span "rpc_rewrite"));
    layer "rpc.verify_s" "s" (per_pass (span "rpc_verify"));
    layer "plan.hits" "count" (per_pass plan_hits);
    layer "plan.misses" "count" (per_pass plan_misses);
    layer "plan.conflicts" "count" (per_pass (total "plan.conflicts"));
    layer "plan.hit_pct" "%" (pct plan_hits (plan_hits +. plan_misses));
    layer "plan.replay_s" "s" (per_pass (span "plan_replay"));
    layer "gc.alloc_mb_per_op" "MB" (ratio (mb (words gc1 -. words gc0)) (float_of_int ops));
    layer "gc.major_collections" "count"
      (per_pass (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
    layer "gc.top_heap_mb" "MB" (mb (float_of_int gc1.Gc.top_heap_words));
    layer "op_self_pct" "%" (pct self_s op_s);
    layer "trace_overhead_pct" "%"
      (100.0 *. ((Work.wall_s traced /. Work.wall_s plain) -. 1.0)) ]
