module Codegen = E9_workload.Codegen
module Adversary = E9_workload.Adversary
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Trampoline = E9_core.Trampoline
module Stats = E9_core.Stats
module Obs = E9_obs.Obs
module Json = E9_obs.Json
module Cpu = E9_emu.Cpu
module Buf = E9_bits.Buf

type score = {
  family : Adversary.family;
  sites : int;
  patched : int;
  patched_pct : float;
  stats : Stats.t;
  agg : Obs.Agg.agg;
  static_err : string option;
  trace_err : string option;
  anchors_ok : bool;
  islands_kept : bool;
  wall_s : float;
}

let trace_config = { Cpu.default_config with Cpu.fuel = 50_000_000 }

let options_of (f : Adversary.family) =
  { Rewriter.default_options with
    Rewriter.tactics =
      { Tactics.default_options with Tactics.b0_fallback = true };
    reserve_below_base = f.Adversary.profile.Codegen.shared_object }

let select_of (f : Adversary.family) =
  match f.Adversary.selector with
  | Adversary.Jumps -> Frontend.select_jumps
  | Adversary.Heap_writes -> Frontend.select_heap_writes

(* The ground truth is read before stripping drops its sections. *)
let prepare (f : Adversary.family) =
  let generated = Codegen.generate f.Adversary.profile in
  let holes = Codegen.holes generated in
  let elf =
    if f.Adversary.strip then
      Elf_file.of_bytes (Elf_file.to_bytes_stripped generated)
    else generated
  in
  (elf, holes)

let byte_range elf ~addr ~len =
  match Frontend.find_text elf with
  | None -> Bytes.empty
  | Some t ->
      Buf.sub elf.Elf_file.data
        ~pos:(t.Frontend.offset + addr - t.Frontend.base)
        ~len

let score_family (f : Adversary.family) =
  let t0 = Unix.gettimeofday () in
  let elf, holes = prepare f in
  let options = options_of f in
  let select = select_of f in
  let obs = Obs.aggregator () in
  let r =
    Rewriter.run ~options ~obs ~holes elf ~select
      ~template:(fun _ -> Trampoline.Empty)
  in
  (* The one sweep of the original: both oracles and the anchors read it. *)
  let index = r.Rewriter.index in
  let static_err =
    match Static.verify ~index ~original:elf r.Rewriter.output with
    | Ok _ -> None
    | Error e -> Some (Format.asprintf "%a" Static.pp_error e)
  in
  let trace_err =
    match
      Trace.compare_runs ~config:trace_config ~index ~original:elf
        r.Rewriter.output
    with
    | Ok _ -> None
    | Error msg -> Some msg
  in
  (* endbr64 families carry an anchor-count ground truth: the decode must
     see exactly one marker per function entry plus one at main. *)
  let anchors_ok =
    if not f.Adversary.profile.Codegen.endbr64_entries then true
    else
      let anchors =
        Frontend.sites index ~init:0 (fun n (s : Frontend.site) ->
            if s.Frontend.insn = E9_x86.Insn.Endbr64 then n + 1 else n)
      in
      anchors = f.Adversary.profile.Codegen.functions + 1
  in
  (* Island families: every excluded byte must survive the rewrite. *)
  let islands_kept =
    List.for_all
      (fun (addr, len) ->
        Bytes.equal
          (byte_range elf ~addr ~len)
          (byte_range r.Rewriter.output ~addr ~len))
      holes
  in
  let stats = r.Rewriter.stats in
  let sites = Stats.total stats in
  let patched = Stats.succeeded stats in
  { family = f;
    sites;
    patched;
    patched_pct = Stats.succ_pct stats;
    stats;
    agg = Obs.agg obs;
    static_err;
    trace_err;
    anchors_ok;
    islands_kept;
    wall_s = Unix.gettimeofday () -. t0 }

(* The regression wall: one typed verdict per family, so CI failures name
   the property that regressed rather than a generic mismatch. *)
let verdict (s : score) =
  let f = s.family in
  if s.sites = 0 then Error "no sites selected"
  else if s.patched_pct < f.Adversary.floor_pct then
    Error
      (Printf.sprintf "patched %.1f%% below pinned floor %.1f%%"
         s.patched_pct f.Adversary.floor_pct)
  else
    match s.static_err with
    | Some e -> Error ("static verifier: " ^ e)
    | None -> (
        match s.trace_err with
        | Some e -> Error ("trace oracle: " ^ e)
        | None ->
            if not s.anchors_ok then
              Error "endbr64 anchor count disagrees with ground truth"
            else if not s.islands_kept then
              Error "island bytes were modified by the rewrite"
            else if
              f.Adversary.expect_pressure
              && s.stats.Stats.t3 + s.stats.Stats.b0 = 0
            then
              Error
                "expected tactic-ladder pressure (T3 or B0) but none fired"
            else Ok ())

let passed s = match verdict s with Ok () -> true | Error _ -> false

let run ?(progress = fun _ -> ()) () =
  List.mapi
    (fun i f ->
      let s = score_family f in
      progress (i + 1);
      s)
    Adversary.families

let score_json (s : score) =
  let f = s.family in
  Json.Obj
    [ ("family", Json.Str f.Adversary.name);
      ("blurb", Json.Str f.Adversary.blurb);
      ("selector", Json.Str (Adversary.selector_name f.Adversary.selector));
      ("stripped", Json.Bool f.Adversary.strip);
      ("sites", Json.Int s.sites);
      ("patched", Json.Int s.patched);
      ("patched_pct", Json.Float s.patched_pct);
      ("floor_pct", Json.Float f.Adversary.floor_pct);
      ("mix",
       Json.Obj
         [ ("b0", Json.Int s.stats.Stats.b0);
           ("b1", Json.Int s.stats.Stats.b1);
           ("b2", Json.Int s.stats.Stats.b2);
           ("t1", Json.Int s.stats.Stats.t1);
           ("t2", Json.Int s.stats.Stats.t2);
           ("t3", Json.Int s.stats.Stats.t3);
           ("failed", Json.Int s.stats.Stats.failed) ]);
      ("tactics", Obs.Agg.tactics_json s.agg);
      ("static",
       match s.static_err with
       | None -> Json.Str "ok"
       | Some e -> Json.Str e);
      ("trace",
       match s.trace_err with None -> Json.Str "ok" | Some e -> Json.Str e);
      ("anchors_ok", Json.Bool s.anchors_ok);
      ("islands_kept", Json.Bool s.islands_kept);
      ("pass", Json.Bool (passed s));
      ("wall_s", Json.Float s.wall_s) ]

let to_json scores =
  Json.Obj
    [ ("schema", Json.Str "e9repro-robustness/1");
      ("families", Json.List (List.map score_json scores));
      ("passed", Json.Bool (List.for_all passed scores)) ]

let pp_score ppf (s : score) =
  let f = s.family in
  Format.fprintf ppf
    "%-11s %-11s %5d sites %6.1f%% patched (floor %5.1f%%)  \
     mix b0=%d b1=%d b2=%d t1=%d t2=%d t3=%d  %s"
    f.Adversary.name
    (Adversary.selector_name f.Adversary.selector)
    s.sites s.patched_pct f.Adversary.floor_pct s.stats.Stats.b0
    s.stats.Stats.b1 s.stats.Stats.b2 s.stats.Stats.t1 s.stats.Stats.t2
    s.stats.Stats.t3
    (match verdict s with Ok () -> "PASS" | Error e -> "FAIL: " ^ e)

let pp ppf scores =
  List.iter (fun s -> Format.fprintf ppf "%a@." pp_score s) scores;
  let failed = List.filter (fun s -> not (passed s)) scores in
  Format.fprintf ppf "%d/%d families pass@."
    (List.length scores - List.length failed)
    (List.length scores)
