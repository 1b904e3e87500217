(* Pinned output digests: the FNV-64 of the serialized output of every
   rewrite over a fixed input set — the Table 1 corpus rows (A1 and A2),
   the adversarial robustness families and the first fuzz cases of the
   fixed-seed campaign — plus the patch-language outputs: tool rewrites
   of the tool-smoke pairs and emits served by the daemon. Any refactor of the rewriter must leave these
   bytes alone; test/digests.txt holds the expected lines and a runtest
   rule diffs this program's output against it at several domain counts.
   It calls only entry points older than itself, so the same source
   also builds in an earlier checkout: diffing the two outputs shows
   exactly which digests a change moved.

   Usage: digests.exe --jobs N
   Prints one line per rewrite: NAME text=TEXT_BYTES DIGEST. *)

module Codegen = E9_workload.Codegen
module Suite = E9_workload.Suite
module Adversary = E9_workload.Adversary
module Rewriter = E9_core.Rewriter
module Tactics = E9_core.Tactics
module Trampoline = E9_core.Trampoline
module Fuzz = E9_check.Fuzz
module Tool = E9_tool.Tool
module Json = E9_obs.Json
module Server = E9_rpc.Server
module Harness = E9_rpc.Harness
module Proto = E9_rpc.Proto

let fuzz_seed = 42
let fuzz_cases = 20

let digest_bytes b = E9_bits.Fnv.hex b ~pos:0 ~len:(Bytes.length b)
let digest (r : Rewriter.result) = digest_bytes (Elf_file.to_bytes r.Rewriter.output)

let text_size elf =
  match Frontend.find_text elf with Some t -> t.Frontend.size | None -> 0

let line name elf r =
  Printf.printf "%s text=%d %s\n%!" name (text_size elf) (digest r)

let rewrite ~jobs ?options ?disasm_from ?frontend elf ~select =
  Rewriter.run ?options ~jobs ?disasm_from ?frontend elf ~select
    ~template:(fun _ -> Trampoline.Empty)

(* The bench's Table 1 setup: default options (shared objects reserve
   the space below their base) and the ChromeMain sweep start. *)
let corpus ~jobs =
  List.iter
    (fun (row : Suite.row) ->
      let p = row.Suite.profile in
      let elf = Codegen.generate p in
      let options =
        { Rewriter.default_options with
          Rewriter.reserve_below_base = p.Codegen.shared_object }
      in
      let disasm_from =
        Option.map
          (fun (s : Elf_file.section) -> s.Elf_file.addr)
          (Elf_file.find_section elf Codegen.chromemain_marker)
      in
      List.iter
        (fun (tag, select) ->
          line
            (Printf.sprintf "corpus/%s/%s" p.Codegen.name tag)
            elf
            (rewrite ~jobs ~options ?disasm_from elf ~select))
        [ ("a1", Frontend.select_jumps); ("a2", Frontend.select_heap_writes) ])
    Suite.rows

(* The robustness matrix's interpretation of a family — stripped
   round trip, island exclusions, hole-aware frontend, B0 fallback —
   at the default text geometry. *)
let robust ~jobs =
  List.iter
    (fun (f : Adversary.family) ->
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
      let options =
        { Rewriter.default_options with
          Rewriter.tactics =
            { Tactics.default_options with Tactics.b0_fallback = true };
          reserve_below_base = f.Adversary.profile.Codegen.shared_object;
          keep_ranges = holes }
      in
      let select =
        match f.Adversary.selector with
        | Adversary.Jumps -> Frontend.select_jumps
        | Adversary.Heap_writes -> Frontend.select_heap_writes
      in
      line ("robust/" ^ f.Adversary.name) elf
        (rewrite ~jobs ~options ?frontend elf ~select))
    Adversary.families

(* The fuzz campaign's case stream (the fuzz-smoke seed); cases whose
   profile cannot be generated are listed as skipped. *)
let fuzz ~jobs =
  let rand = Random.State.make [| fuzz_seed |] in
  for i = 1 to fuzz_cases do
    let case = QCheck2.Gen.generate1 ~rand Fuzz.gen_case in
    match Fuzz.rewrite ~jobs case with
    | elf, _, r -> line (Printf.sprintf "fuzz/%02d" i) elf r
    | exception Codegen.Error _ ->
        Printf.printf "fuzz/%02d skipped\n%!" i
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
let tool ~jobs =
  let elf = Lazy.force smoke_input in
  List.iter
    (fun (m, p) ->
      let res = Tool.run ~jobs elf [ Tool.rule_of ~m ~p () ] in
      line (Printf.sprintf "tool/%s|%s" m p) res.Tool.runtime.Tool.augmented
        res.Tool.rewrite)
    [ ("jumps", "print"); ("all", "count"); ("returns", "trap");
      ("heap-writes", "lowfat"); ("mnemonic mov and op[0].type == reg", "empty");
      ("calls", "call:clean record(addr,size,3)");
      ("returns", "call:naked counter()") ]

(* Emits served by the daemon for one session's messages (after loading
   the smoke input), driven through the in-process transport. *)
let served ~jobs =
  let elf = Lazy.force smoke_input in
  let raw = Elf_file.to_bytes elf in
  let serve name msgs =
    let server = Server.create ~jobs () in
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
    match data with
    | Some b ->
        Printf.printf "served/%s text=%d %s\n%!" name (text_size elf)
          (digest_bytes b)
    | None -> Printf.printf "served/%s refused\n%!" name
  in
  List.iter
    (fun spec -> serve ("patch " ^ spec) [ ("patch", [ ("spec", Json.Str ("patch " ^ spec)) ]) ])
    [ "jumps with counter"; "heap-writes with lowfat"; "heap-writes with empty" ];
  serve "selector jumps+counter"
    [ ("patch", [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "counter") ]) ];
  serve "tool jumps|count"
    [ ("tool", [ ("match", Json.Str "jumps"); ("patch", Json.Str "count") ]) ]

let () =
  let jobs =
    match Sys.argv with
    | [| _; "--jobs"; n |] -> int_of_string n
    | _ ->
        prerr_endline "usage: digests.exe --jobs N";
        exit 2
  in
  corpus ~jobs;
  robust ~jobs;
  fuzz ~jobs;
  tool ~jobs;
  served ~jobs
