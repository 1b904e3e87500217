(* Pinned output digests: the FNV-64 of the serialized output of every
   rewrite over a fixed input set — the Table 1 corpus rows (A1 and A2),
   the adversarial robustness families and the first fuzz cases of the
   fixed-seed campaign — plus the patch-language outputs: tool rewrites
   of the tool-smoke pairs and emits served by the daemon. Any refactor of the rewriter must leave these
   bytes alone; test/digests.txt holds the expected lines and a runtest
   rule diffs this program's output against it. Building the same
   source in an earlier checkout that has the entry points it calls and
   diffing the two outputs shows exactly which digests a change moved.

   With --verify it instead runs the static verifier on every rewrite,
   with the data holes that rewrite used, and pins its report:
   test/verify_digests.txt holds those lines. A verifier change
   that must not move a verdict keeps that file unchanged.

   Usage: digests.exe [--verify]
   Prints one line per rewrite: NAME text=TEXT_BYTES DIGEST, or with
   --verify: verify/NAME CHANGED/DIVERSIONS/SHORTS/TRAPS/TRAMPOLINES
   DIGEST, where DIGEST is the FNV-64 of the report's classification
   printed as one ADDR:CLASS line per changed byte; a rejected pair
   prints verify/NAME rejected ADDR:DIGEST, hashing the error's
   reason. With --trace: trace/NAME ok
   EVENTS/BOUNDARY_RETIRES/STORES/INSNS_ORIGINAL/INSNS_REWRITTEN, or
   trace/NAME error MESSAGE with the oracle's full message. *)

module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Adversary = E9_workload.Adversary
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Fuzz = E9_check.Fuzz
module Matrix = E9_check.Matrix
module Tool = E9_tool.Tool
module Json = E9_obs.Json
module Server = E9_rpc.Server
module Harness = E9_rpc.Harness
module Proto = E9_rpc.Proto
module Static = E9_check.Static
module Trace = E9_check.Trace
module Fnv = E9_bits.Fnv

let fuzz_seed = 42
let fuzz_cases = 20

(* Set by --verify / --trace: print the verifier's report or the trace
   oracle's verdict instead of the bytes. *)
type mode = Output | Verify | Oracle

let mode = ref Output

let digest_bytes b = Fnv.hex b ~pos:0 ~len:(Bytes.length b)

let text_size elf =
  match Frontend.find_text elf with Some t -> t.Frontend.size | None -> 0

let verify_line name ?holes ~original out =
  match Static.verify ?holes ~original out with
  | Ok r ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (a, c) -> Printf.bprintf b "0x%x:%s\n" a (Static.class_name c))
        r.Static.classified;
      Printf.printf "verify/%s %d/%d/%d/%d/%d %s\n%!" name
        r.Static.changed_bytes r.Static.diversions r.Static.short_jumps
        r.Static.traps r.Static.trampolines_checked
        (Fnv.to_hex (Fnv.hash64_string (Buffer.contents b)))
  | Error e ->
      Printf.printf "verify/%s rejected 0x%x:%s\n%!" name e.Static.addr
        (Fnv.to_hex (Fnv.hash64_string e.Static.reason))

let trace_line name ?holes ?instr_ranges ~original out =
  match Trace.compare_runs ?holes ?instr_ranges ~original out with
  | Ok s ->
      Printf.printf "trace/%s ok %d/%d/%d/%d/%d\n%!" name s.Trace.events
        s.Trace.boundary_retires s.Trace.stores s.Trace.insns_original
        s.Trace.insns_rewritten
  | Error msg -> Printf.printf "trace/%s error %s\n%!" name msg

(* One pinned rewrite of [original] into [out]; [holes] are what the
   rewrite itself used, [instr_ranges] the pages of the runtime it
   carries. *)
let line name ?holes ?instr_ranges original out =
  match !mode with
  | Verify -> verify_line name ?holes ~original out
  | Oracle -> trace_line name ?holes ?instr_ranges ~original out
  | Output ->
      Printf.printf "%s text=%d %s\n%!" name (text_size original)
        (digest_bytes (Elf_file.to_bytes out))

(* A case with no rewrite to pin ([skipped], [refused]). *)
let missing name what =
  let prefix =
    match !mode with Output -> "" | Verify -> "verify/" | Oracle -> "trace/"
  in
  Printf.printf "%s%s %s\n%!" prefix name what

let rewrite ?options ?holes elf ~select =
  Rewriter.run ?options ?holes elf ~select ~template:(fun _ -> Trampoline.Empty)

(* The bench's Table 1 setup: default options (shared objects reserve
   the space below their base) and the generator's holes (the ChromeMain
   pool). *)
let corpus () =
  List.iter
    (fun (row : Suite.row) ->
      let p = row.Suite.profile in
      let elf = Codegen.generate p in
      let options =
        { Rewriter.default_options with
          Rewriter.reserve_below_base = p.Codegen.shared_object }
      in
      let holes = Codegen.holes elf in
      List.iter
        (fun (tag, select) ->
          line
            (Printf.sprintf "corpus/%s/%s" p.Codegen.name tag)
            ~holes elf
            (rewrite ~options ~holes elf ~select).Rewriter.output)
        [ ("a1", Frontend.select_jumps); ("a2", Frontend.select_heap_writes) ])
    Suite.rows

(* The robustness matrix's interpretation of a family — stripped
   round trip, data holes, B0 fallback — at the default text geometry. *)
let robust () =
  List.iter
    (fun (f : Adversary.family) ->
      let elf, holes = Matrix.prepare f in
      let select =
        match f.Adversary.selector with
        | Adversary.Jumps -> Frontend.select_jumps
        | Adversary.Heap_writes -> Frontend.select_heap_writes
      in
      line ("robust/" ^ f.Adversary.name) ~holes elf
        (rewrite ~options:(Matrix.options_of f) ~holes elf ~select)
          .Rewriter.output)
    Adversary.families

(* The fuzz campaign's case stream (the fuzz-smoke seed); cases whose
   profile cannot be generated are listed as skipped. *)
let fuzz () =
  let rand = Random.State.make [| fuzz_seed |] in
  for i = 1 to fuzz_cases do
    let case = QCheck2.Gen.generate1 ~rand Fuzz.gen_case in
    match Fuzz.rewrite case with
    | elf, holes, r ->
        line (Printf.sprintf "fuzz/%02d" i) ~holes elf r.Rewriter.output
    | exception Codegen.Error _ ->
        missing (Printf.sprintf "fuzz/%02d" i) "skipped"
  done

(* The tool-smoke input ([generate --functions 40 --iterations 80
   --seed 7]), as the CLI reads it back from the file. *)
let smoke_input =
  lazy
    (Elf_file.of_bytes
       (Elf_file.to_bytes
          (Codegen.generate
             { Codegen.default_profile with
               Codegen.seed = 7L; functions = 40; iterations = 80 })))

(* [tool -M m -P p] on the smoke input: the tool-smoke pairs plus a
   naked call. *)
let tool () =
  let elf = Lazy.force smoke_input in
  List.iter
    (fun (m, p) ->
      let res = Tool.run elf [ Tool.rule_of ~m ~p () ] in
      let rt = res.Tool.runtime in
      line (Printf.sprintf "tool/%s|%s" m p)
        ~instr_ranges:rt.Tool.instr_ranges rt.Tool.augmented
        res.Tool.rewrite.Rewriter.output)
    [ ("jumps", "print"); ("all", "count"); ("returns", "trap");
      ("heap-writes", "lowfat"); ("mnemonic mov and op[0].type == reg", "empty");
      ("calls", "call:clean record(addr,size,3)");
      ("returns", "call:naked counter()") ]

(* Emits served by the daemon for one session's messages (after loading
   the smoke input), driven through the in-process transport. Rules that
   keep state in the runtime rewrite the input with the runtime
   injected: --verify and --trace check every emit against the rewrite
   input [Tool.runtime_in] finds in it (as [check] does), the runtime's
   pages private. *)
let served () =
  let elf = Lazy.force smoke_input in
  let raw = Elf_file.to_bytes elf in
  let serve name msgs =
    let server = Server.create () in
    let conn = Server.connect server in
    let load =
      Harness.request ~id:1 "binary" [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
    in
    let emit = Harness.request ~id:99 "emit" [ ("data", Json.Bool true) ] in
    let outs =
      List.concat_map
        (fun l -> fst (Server.feed conn l))
        ((load :: List.mapi (fun i (meth, params) -> Harness.request ~id:(i + 2) meth params) msgs)
        @ [ emit ])
    in
    Server.close_conn conn;
    let data =
      match Json.of_string (List.nth outs (List.length outs - 1)) with
      | Ok j -> (
          match Option.bind (Json.member "result" j) (Json.member "data") with
          | Some (Json.Str hex) -> Result.to_option (Proto.bytes_of_hex hex)
          | _ -> None)
      | Error _ -> None
    in
    match (data, !mode) with
    | Some b, Output ->
        Printf.printf "served/%s text=%d %s\n%!" name (text_size elf)
          (digest_bytes b)
    | Some b, (Verify | Oracle) -> (
        let out = Elf_file.of_bytes b in
        let rt = Tool.runtime_in ~original:elf out in
        line ("served/" ^ name) ~instr_ranges:rt.Tool.instr_ranges
          rt.Tool.augmented out)
    | None, _ -> missing ("served/" ^ name) "refused"
  in
  List.iter
    (fun spec -> serve ("patch " ^ spec) [ ("patch", [ ("spec", Json.Str ("patch " ^ spec)) ]) ])
    [ "jumps with counter"; "heap-writes with lowfat"; "heap-writes with empty" ];
  serve "selector jumps+counter"
    [ ("patch", [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "counter") ]) ];
  serve "tool jumps|count"
    [ ("tool", [ ("match", Json.Str "jumps"); ("patch", Json.Str "count") ]) ]

let () =
  (match Sys.argv with
  | [| _ |] -> ()
  | [| _; "--verify" |] -> mode := Verify
  | [| _; "--trace" |] -> mode := Oracle
  | _ ->
      prerr_endline "usage: digests.exe [--verify | --trace]";
      exit 2);
  corpus ();
  robust ();
  fuzz ();
  tool ();
  served ()
