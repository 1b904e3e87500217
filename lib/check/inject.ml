module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Stats = E9_core.Stats
module Trampoline = E9_core.Trampoline
module Obs = E9_obs.Obs
module Json = E9_obs.Json
module Fault = E9_fault.Fault

(* One campaign case: a random rewrite profile × a random fault
   schedule. The property is the DESIGN.md §11 contract — every injected
   fault lands in exactly one of three outcomes. *)
type fcase = { case : Fuzz.case; schedule : Fault.rule list }

let fcase_to_string f =
  Printf.sprintf "%s inject=%S" (Fuzz.case_to_string f.case)
    (Fault.to_string f.schedule)

(* Fault schedules: 1-3 rules over the counted/indexed sites. Occurrence
   thresholds are skewed low (the first queries are the ones every case
   reaches); decode cuts range over text offsets. [Trace] and [Write]
   rules are exercised by the file-write/trace legs below, not by the
   rewrite itself. *)
let gen_rule =
  let open QCheck2.Gen in
  let* site =
    oneofl
      [ Fault.Alloc; Fault.Alloc; Fault.Alloc; Fault.B0_alloc; Fault.Decode;
        Fault.Shard; Fault.Trace; Fault.Write ]
  in
  let* trigger =
    match site with
    | Fault.Decode ->
        let* off = int_bound 20_000 in
        return (Fault.At off)
    | Fault.Shard ->
        (* The tactic search is shard 0, so only rules matching key 0
           fire; the others must leave the rewrite untouched. *)
        oneof
          [ map (fun k -> Fault.At k) (int_bound 8);
            map (fun k -> Fault.From k) (int_bound 4);
            map (fun k -> Fault.Every (k + 1)) (int_bound 3) ]
    | _ ->
        oneof
          [ map (fun n -> Fault.At n) (int_bound 200);
            map (fun n -> Fault.From n) (int_bound 50);
            map (fun n -> Fault.Every (n + 1)) (int_bound 63) ]
  in
  return { Fault.site; trigger }

let gen_schedule =
  let open QCheck2.Gen in
  let* n = int_range 1 3 in
  list_size (return n) gen_rule

let gen_fcase =
  let open QCheck2.Gen in
  let* case = Fuzz.gen_case in
  let* schedule = gen_schedule in
  return { case; schedule }

type outcome =
  | Full  (** rewrite + static verification OK, no site failed *)
  | Degraded  (** verified, but sites failed or fell back to B0 *)
  | Typed of string  (** typed refusal, nothing half-written *)

let outcome_name = function
  | Full -> "full"
  | Degraded -> "degraded"
  | Typed _ -> "typed"

let same_outcome a b =
  match (a, b) with
  | Full, Full | Degraded, Degraded -> true
  | Typed x, Typed y -> x = y
  | _ -> false

(* Rewrite under an injected schedule and classify. [Error _] means the
   contract was violated: an uncaught exception or an output the
   independent verifier rejects — the campaign counts those as failures
   of the pipeline, not as fault outcomes. *)
let run_leg ?(jobs = 1) f =
  let elf, disasm_from, select = Fuzz.prepare f.case in
  let fault = Fault.create f.schedule in
  match
    Rewriter.run ~options:f.case.Fuzz.options ~fault ~jobs ?disasm_from elf ~select
      ~template:(fun _ -> Trampoline.Empty)
  with
  | exception Rewriter.Error m -> Ok (Typed ("rewriter: " ^ m), None)
  | exception Frontend.Error m -> Ok (Typed ("frontend: " ^ m), None)
  | r -> (
      match Static.verify ?disasm_from ~original:elf r.Rewriter.output with
      | Error e ->
          Error
            (Format.asprintf "output rejected by Static.verify: %a"
               Static.pp_error e)
      | Ok _ ->
          let s = r.Rewriter.stats in
          let degraded =
            s.Stats.failed > 0
            || (Fault.fired fault Fault.Alloc > 0 && s.Stats.b0 > 0)
          in
          Ok ((if degraded then Degraded else Full), Some r))

(* Allocator exhaustion with the B0 fallback on must degrade every site
   to B0 — zero failures, the paper's always-succeeds guarantee under
   injected starvation. *)
let run_b0_exhaustion_leg case =
  let elf, disasm_from, select = Fuzz.prepare case in
  let options =
    { case.Fuzz.options with
      Rewriter.tactics = { case.Fuzz.options.Rewriter.tactics with
                  Tactics.b0_fallback = true } }
  in
  let fault = Fault.create [ { Fault.site = Fault.Alloc; trigger = From 0 } ] in
  match
    Rewriter.run ~options ~fault ~jobs:1 ?disasm_from elf ~select
      ~template:(fun _ -> Trampoline.Empty)
  with
  | exception Rewriter.Error m -> Error ("b0 leg: rewriter: " ^ m)
  | exception Frontend.Error m -> Error ("b0 leg: frontend: " ^ m)
  | r -> (
      let s = r.Rewriter.stats in
      if s.Stats.failed > 0 then
        Error
          (Printf.sprintf
             "b0 leg: %d sites failed under alloc exhaustion + b0_fallback"
             s.Stats.failed)
      else if Stats.succeeded s <> s.Stats.b0 then
        Error
          (Printf.sprintf
             "b0 leg: %d sites succeeded but only %d on B0 under total \
              alloc exhaustion"
             (Stats.succeeded s) s.Stats.b0)
      else
        match Static.verify ?disasm_from ~original:elf r.Rewriter.output with
        | Error e ->
            Error
              (Format.asprintf "b0 leg: output rejected: %a" Static.pp_error e)
        | Ok _ -> Ok s.Stats.b0)

(* Serialization faults: write the rewrite out with [Write] rules
   driving the short-write hook. Either the complete file lands and
   re-reads, or [Io_error] is raised and nothing exists at the path. *)
let run_write_leg f (r : Rewriter.result) =
  let path = Filename.temp_file "e9_inject" ".bin" in
  Sys.remove path;
  let wfault = Fault.create f.schedule in
  let fired = ref false in
  let fault () =
    let v = Fault.fires wfault Fault.Write in
    if v then fired := true;
    v
  in
  let cleanup () = if Sys.file_exists path then Sys.remove path in
  match Elf_file.write_file ~fault r.Rewriter.output path with
  | exception Elf_file.Io_error _ ->
      if Sys.file_exists path then begin
        cleanup ();
        Error "write leg: Io_error but a file exists at the destination"
      end
      else (
        match E9_bits.Atomic_file.leftovers path with
        | [] -> Ok (if !fired then 1 else 0)
        | tmps ->
            List.iter Sys.remove tmps;
            Error "write leg: Io_error left a temp file behind")
  | () -> (
      match Elf_file.read_file path with
      | exception Elf_file.Malformed m ->
          cleanup ();
          Error ("write leg: written file does not re-read: " ^ m)
      | _ ->
          cleanup ();
          Ok 0)

(* Trace-sink faults: export a ring trace with [Trace] rules driving the
   sink hook; a refused write must raise [Sink_error] and leave no
   file. *)
let run_trace_leg f (r : Rewriter.result) =
  ignore r;
  let path = Filename.temp_file "e9_inject" ".ndjson" in
  Sys.remove path;
  let tfault = Fault.create f.schedule in
  let fired = ref false in
  let fault () =
    let v = Fault.fires tfault Fault.Trace in
    if v then fired := true;
    v
  in
  let obs = Obs.ring ~capacity:64 () in
  Obs.gauge obs ~name:"inject.leg" ~value:1;
  let cleanup () = if Sys.file_exists path then Sys.remove path in
  match Obs.write_ndjson ~fault obs path with
  | exception Obs.Sink_error _ ->
      if Sys.file_exists path then begin
        cleanup ();
        Error "trace leg: Sink_error but a file exists at the destination"
      end
      else Ok (if !fired then 1 else 0)
  | () -> (
      let s = In_channel.with_open_text path In_channel.input_all in
      cleanup ();
      match Obs.validate_ndjson s with
      | Ok _ -> Ok 0
      | Error m -> Error ("trace leg: written trace invalid: " ^ m))

type summary = {
  cases : int;
  full : int;
  degraded : int;
  typed : int;
  skipped : int;  (** profiles that failed to generate (Codegen.Error) *)
  b0_sites : int;  (** sites degraded to B0 in the exhaustion legs *)
  write_faults : int;
  trace_faults : int;
  jobs_checked : int;
  failures : (string * string) list;  (** case, contract violation *)
}

let pp_summary ppf s =
  Format.fprintf ppf
    "%d fault cases: %d full, %d degraded, %d typed, %d skipped, \
     %d violations; %d sites degraded to B0 under exhaustion; %d write \
     faults and %d trace faults contained; %d jobs-invariance checks"
    s.cases s.full s.degraded s.typed s.skipped
    (List.length s.failures)
    s.b0_sites s.write_faults s.trace_faults s.jobs_checked

(* One full case: primary leg, jobs-invariance legs, B0-exhaustion leg,
   and the file-write/trace legs when the primary leg produced output. *)
let run_fcase f =
  let fail m = Error m in
  match run_leg ~jobs:1 f with
  | exception Codegen.Error _ -> Ok None
  | Error m -> fail m
  | Ok (o1, r1) -> (
      (* Same schedule, fresh counters, more domains: outputs must be
         byte-identical (or the identical typed refusal). *)
      let rec invariance = function
        | [] -> Ok ()
        | jobs :: rest -> (
            match run_leg ~jobs f with
            | Error m -> fail (Printf.sprintf "jobs=%d: %s" jobs m)
            | Ok (on, rn) -> (
                if not (same_outcome o1 on) then
                  fail
                    (Printf.sprintf "jobs=%d outcome %s differs from jobs=1 %s"
                       jobs (outcome_name on) (outcome_name o1))
                else
                  match (r1, rn) with
                  | Some a, Some b
                    when not
                           (Bytes.equal
                              (Elf_file.to_bytes a.Rewriter.output)
                              (Elf_file.to_bytes b.Rewriter.output)) ->
                      fail
                        (Printf.sprintf
                           "jobs=%d output bytes differ from jobs=1 under \
                            the same fault schedule"
                           jobs)
                  | Some a, Some b when a.Rewriter.stats <> b.Rewriter.stats ->
                      fail (Printf.sprintf "jobs=%d stats differ" jobs)
                  | _ -> invariance rest))
      in
      match invariance [ 2; 4 ] with
      | Error m -> fail m
      | Ok () -> (
          match run_b0_exhaustion_leg f.case with
          | Error m -> fail m
          | Ok b0 -> (
              let wt =
                match r1 with
                | None -> Ok (0, 0)
                | Some r -> (
                    match run_write_leg f r with
                    | Error m -> Error m
                    | Ok w -> (
                        match run_trace_leg f r with
                        | Error m -> Error m
                        | Ok t -> Ok (w, t)))
              in
              match wt with
              | Error m -> fail m
              | Ok (w, t) -> Ok (Some (o1, b0, w, t)))))

let campaign ?(progress = fun _ -> ()) ~n ~seed () =
  let rand = Random.State.make [| seed |] in
  let s =
    ref
      { cases = 0;
        full = 0;
        degraded = 0;
        typed = 0;
        skipped = 0;
        b0_sites = 0;
        write_faults = 0;
        trace_faults = 0;
        jobs_checked = 0;
        failures = [] }
  in
  for i = 1 to n do
    let f = QCheck2.Gen.generate1 ~rand gen_fcase in
    (match run_fcase f with
    | Ok None -> s := { !s with cases = !s.cases + 1; skipped = !s.skipped + 1 }
    | Ok (Some (o, b0, w, t)) ->
        s :=
          { !s with
            cases = !s.cases + 1;
            full = (!s.full + match o with Full -> 1 | _ -> 0);
            degraded = (!s.degraded + match o with Degraded -> 1 | _ -> 0);
            typed = (!s.typed + match o with Typed _ -> 1 | _ -> 0);
            b0_sites = !s.b0_sites + b0;
            write_faults = !s.write_faults + w;
            trace_faults = !s.trace_faults + t;
            jobs_checked = !s.jobs_checked + 2 }
    | Error m ->
        s :=
          { !s with
            cases = !s.cases + 1;
            failures = (fcase_to_string f, m) :: !s.failures });
    progress i
  done;
  { !s with failures = List.rev !s.failures }

let property ?(count = 40)
    ?(name = "every injected fault degrades, accounts, or types") () =
  QCheck2.Test.make ~count ~name ~print:fcase_to_string gen_fcase (fun f ->
      match run_fcase f with
      | Ok _ -> true
      | Error m -> QCheck2.Test.fail_reportf "%s" m)

let summary_json s =
  Json.Obj
    [ ("cases", Json.Int s.cases);
      ("full", Json.Int s.full);
      ("degraded", Json.Int s.degraded);
      ("typed", Json.Int s.typed);
      ("skipped", Json.Int s.skipped);
      ("violations", Json.Int (List.length s.failures));
      ("b0_sites", Json.Int s.b0_sites);
      ("write_faults", Json.Int s.write_faults);
      ("trace_faults", Json.Int s.trace_faults);
      ("jobs_checked", Json.Int s.jobs_checked) ]
