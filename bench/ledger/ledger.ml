(* The benchmark ledger: one fixed, repeated protocol by which every
   performance or simplicity change to this rewriter is judged.

     ledger.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     ledger.exe compare A.json... -- B.json...

   Each workload runs in a fresh child process (this executable again,
   with E9_JOBS removed from its environment, so every rewrite runs at the
   program's default job count). The child builds its inputs from the
   seed, sets up five times, runs the workload's fixed number of passes
   (scaled by --seconds over the declared run length, and failing if they
   take longer than twice --seconds), checks every output with an oracle and
   prints each metric as [workload metric value unit n=<samples>], then,
   as the last line, a JSON object with [correct], [attempted], [failed]
   and the declared metrics: every end-to-end metric of BENCHMARK.json
   untraced, every per-layer metric with [--trace 1]. The traced run
   gives half its passes to an untraced loop, so the tracing overhead is
   measured, and never feeds the end-to-end numbers. [--out FILE] also
   appends the full record (and, traced, writes the ledger's spans as
   FILE.spans.ndjson); nothing else is written. The exit code is 0 only
   when every output was correct. *)

let workloads =
  [ Cold_patch.workload; Static_check.workload; Tool_check.workload; Serve_mix.workload ]

let usage () =
  prerr_endline
    "usage: ledger.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       ledger.exe compare PARENT.json... -- CHANGE.json...\n\
     workloads: cold-patch static-check tool-check serve-mix (default: all)";
  exit 2

type args = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  out : string option;
  child : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest
      when List.exists (fun (x : Work.t) -> x.Work.name = w) workloads ->
        go { a with workload = Some w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
        go { a with seconds = Some (float_of_string s) } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | "--child" :: rest -> go { a with child = true } rest
    | _ -> usage ()
  in
  go { workload = None; seed = 1; seconds = None; trace = false; out = None; child = false } argv

(* {1 The child: measure one workload} *)

let metric = Layers.metric

(* Geometric mean of output over input × 100, as the paper's Size% and
   Time% columns average over programs. *)
let mean_pct = function
  | [] -> 0.0
  | pairs ->
      Stat.geomean
        (List.map (fun (i, o) -> 100.0 *. float_of_int o /. float_of_int i) pairs)

let measure (w : Work.t) ~seed ~passes ~seconds ~trace =
  let setup = w.Work.generate seed in
  (* Set-up time is the median of five set-ups: the one measured, before
     the loop, and four spread across the untraced loop. *)
  let setup0, inst = Work.time_setup setup in
  (* A run fails only past twice its length, which no commit within the
     bounds of BENCHMARK.json comes near; each half of a traced run, past
     1.5 times. *)
  let passes, cap =
    if trace then (max 1 (passes / 2), 1.5 *. seconds) else (passes, 2.0 *. seconds)
  in
  let plain =
    Work.loop ~resetup:(fun () -> ignore (setup ())) ~resetups:4 inst ~passes ~cap
  in
  let traced =
    if trace then begin
      let gc0 = Gc.quick_stat () in
      Probe.start ();
      let r = Work.loop inst ~passes ~cap in
      Probe.stop ();
      Some (r, gc0, Gc.quick_stat ())
    end
    else None
  in
  (* The workload's own peak, before the oracles run. *)
  let peak_rss_mb = Work.peak_rss_mb () in
  let report = inst.Work.finish ~trace in
  let runs = plain :: Option.fold ~none:[] ~some:(fun (r, _, _) -> [ r ]) traced in
  let attempted = List.fold_left (fun acc r -> acc + r.Work.attempted) 0 runs in
  let failures = List.concat_map (fun r -> r.Work.failures) runs @ report.Work.failures in
  let failed = min attempted (List.length failures) in
  let or0 f = function [] -> 0.0 | xs -> f xs in
  let s t = Work.at_reference t and ms t = 1000.0 *. Work.at_reference t in
  let lat = Work.latencies plain in
  let nlat = List.length lat in
  let setups = setup0 :: plain.Work.setups in
  let e2e =
    [ metric ~n:(List.length setups) "setup_s" "s" (s (Stat.median setups));
      metric ~n:(Work.samples plain) "wall_s" "s" (s (Work.wall_s plain));
      metric ~n:nlat "p50_ms" "ms" (ms (or0 Stat.median lat));
      metric ~n:nlat "p90_ms" "ms" (ms (or0 (fun xs -> Stat.percentile xs 0.9) lat));
      metric "peak_rss_mb" "MB" peak_rss_mb;
      metric ~n:(List.length report.Work.sizes) "coverage_pct" "%"
        (Layers.pct (float_of_int report.Work.patched) (float_of_int report.Work.selected));
      metric ~n:(List.length report.Work.sizes) "size_pct" "%" (mean_pct report.Work.sizes);
      metric ~n:(List.length report.Work.cycles) "overhead_pct" "%"
        (mean_pct report.Work.cycles) ]
  in
  let layers =
    match traced with
    | None -> []
    | Some (t, gc0, gc1) -> Layers.compute ~plain ~traced:t ~report ~gc0 ~gc1
  in
  (* The box's speed in this run, which every timing above is scaled by:
     kept in the record so that a reader can tell a slow box from a slow
     program. *)
  let clock = metric "clock_ms" "ms" (1000.0 *. Work.clock ()) in
  (attempted, failed, failures, e2e @ layers @ [ clock ])

(* Full digits: a reader must be able to tell two runs apart. *)
let number f =
  if not (Float.is_finite f) then failwith "non-finite metric value"
  else Printf.sprintf "%.17g" f

let json_str s = E9_obs.Json.to_string (E9_obs.Json.Str s)

let record ~workload ~seed ~seconds ~trace ~failed ~attempted failures metrics =
  let m (x : Layers.metric) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s,\"n\":%d}" (json_str x.Layers.name)
      (number x.Layers.value) (json_str x.Layers.unit) x.Layers.n
  in
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"failures\":[%s],\"metrics\":{%s}}"
    (json_str workload) seed (number seconds) (Bool.to_int trace) (failed = 0) attempted
    failed
    (String.concat "," (List.map json_str failures))
    (String.concat "," (List.map m metrics))

let child (decl : Bench_decl.t) a seconds =
  let w = List.find (fun (x : Work.t) -> Some x.Work.name = a.workload) workloads in
  let passes =
    max 1
      (Float.to_int
         (Float.round
            (float_of_int w.Work.passes *. seconds /. float_of_int decl.Bench_decl.run_seconds)))
  in
  let attempted, failed, failures, metrics =
    measure w ~seed:a.seed ~passes ~seconds ~trace:a.trace
  in
  List.iter
    (fun (x : Layers.metric) ->
      Printf.printf "%s %s %.6g %s n=%d\n" w.Work.name x.Layers.name x.Layers.value
        x.Layers.unit x.Layers.n)
    metrics;
  List.iter (fun f -> Printf.eprintf "%s: FAILED %s\n" w.Work.name f) failures;
  Option.iter
    (fun out ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 out (fun oc ->
          output_string oc
            (record ~workload:w.Work.name ~seed:a.seed ~seconds ~trace:a.trace ~failed
               ~attempted failures metrics
            ^ "\n"));
      if a.trace then Probe.write_ndjson (out ^ ".spans.ndjson"))
    a.out;
  let declared = if a.trace then decl.Bench_decl.per_layer else decl.Bench_decl.end_to_end in
  let result =
    List.map
      (fun (d : Bench_decl.metric) ->
        match List.find_opt (fun (x : Layers.metric) -> x.Layers.name = d.Bench_decl.name) metrics with
        | Some x when x.Layers.unit = d.Bench_decl.unit ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str x.Layers.name)
              (number x.Layers.value) (json_str x.Layers.unit)
        | _ -> failwith ("declared metric not reported: " ^ d.Bench_decl.name))
      declared
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0) attempted failed (String.concat "," result);
  exit (if failed = 0 then 0 else 1)

(* {1 The parent: one child per workload} *)

(* Runs one workload in a child process sharing this one's stdout and
   stderr; true when the child reported every output correct. *)
let spawn a ~seconds name =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"E9_JOBS=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let args =
    [ Sys.executable_name; "--child"; "--workload"; name; "--seed"; string_of_int a.seed;
      "--seconds"; number seconds; "--trace"; (if a.trace then "1" else "0") ]
    @ Option.fold ~none:[] ~some:(fun o -> [ "--out"; o ]) a.out
  in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list args) env Unix.stdin
      Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: r -> split (x :: acc) r
        | [] -> usage ()
      in
      match split [] rest with
      | (_ :: _ as parent), (_ :: _ as change) ->
          Compare.run (Bench_decl.load ()) ~parent ~change
      | _ -> usage ())
  | argv ->
      let a = parse argv in
      let decl = Bench_decl.load () in
      let seconds =
        Option.value a.seconds ~default:(float_of_int decl.Bench_decl.run_seconds)
      in
      if a.child then child decl a seconds
      else begin
        Option.iter (fun o -> Out_channel.with_open_bin o ignore) a.out;
        let names =
          match a.workload with
          | Some w -> [ w ]
          | None -> List.map (fun (w : Work.t) -> w.Work.name) workloads
        in
        let ok = List.map (spawn a ~seconds) names in
        exit (if List.for_all Fun.id ok then 0 else 1)
      end
