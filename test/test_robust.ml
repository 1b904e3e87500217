(* The robustness corpus as a regression wall: every adversarial family
   must keep passing its pinned expectations (floor, verifier verdicts,
   family ground truth). The corpus is scored once and
   shared across cases, so the suite costs one campaign run. *)

module Matrix = E9_check.Matrix
module Adversary = E9_workload.Adversary
module Codegen = E9_workload.Codegen
module Stats = E9_core.Stats
module Obs = E9_obs.Obs

let check_bool = Alcotest.(check bool)

let scores = lazy (Matrix.run ())

let score name =
  match
    List.find_opt
      (fun (s : Matrix.score) -> s.Matrix.family.Adversary.name = name)
      (Lazy.force scores)
  with
  | Some s -> s
  | None -> Alcotest.failf "family %S missing from the corpus" name

(* One test case per family, each named after the family, so a CI failure
   names the family that regressed without reading the matrix. *)
let test_family name () =
  match Matrix.verdict (score name) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let test_corpus_shape () =
  let n = List.length Adversary.families in
  check_bool "at least 8 families scored" true (n >= 8);
  check_bool "family names unique" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun f -> f.Adversary.name) Adversary.families))
    = n);
  (* Both patch-site selectors and both header regimes are represented. *)
  let some p = List.exists p Adversary.families in
  check_bool "a heap-write family exists" true
    (some (fun f -> f.Adversary.selector = Adversary.Heap_writes));
  check_bool "a stripped family exists" true (some (fun f -> f.Adversary.strip));
  check_bool "a PIE family exists" true
    (some (fun f -> f.Adversary.profile.Codegen.pie));
  check_bool "a DSO family exists" true
    (some (fun f -> f.Adversary.profile.Codegen.shared_object))

(* The acceptance criterion behind [expect_pressure]: the tiny-insn strip
   demonstrably starves the jump-tactic ladder — sites fall through to
   T3 chains and some land on the B0 trap fallback. *)
let test_starvation () =
  let s = score "tiny-runs" in
  check_bool "tiny-runs drives sites to T3" true (s.Matrix.stats.Stats.t3 > 0);
  check_bool "tiny-runs drives sites to B0" true (s.Matrix.stats.Stats.b0 > 0);
  (* The reject histogram explains the fallthrough in typed terms: the
     dead-window reason (structurally unservable rel8 windows) fires.
     Index 8 = Dead_window, pinned by the test_obs enum golden. *)
  let dead = s.Matrix.agg.Obs.Agg.rejected.(8) in
  check_bool "typed dead-window rejects recorded" true (dead > 0)

let test_islands_ground_truth () =
  let f =
    match Adversary.find "islands" with
    | Some f -> f
    | None -> Alcotest.fail "islands family missing"
  in
  let elf = Codegen.generate f.Adversary.profile in
  let islands = Codegen.islands elf in
  check_bool "islands family embeds data islands" true (islands <> []);
  List.iter
    (fun (addr, len) ->
      check_bool "island addr positive" true (addr > 0);
      check_bool "island len positive" true (len > 0))
    islands;
  (* And the scored run kept every island byte intact. *)
  check_bool "islands preserved" true (score "islands").Matrix.islands_kept

let test_whole_corpus_passes () =
  let failing =
    List.filter (fun s -> not (Matrix.passed s)) (Lazy.force scores)
  in
  check_bool "every family passes" true (failing = [])

let suites =
  [ ( "robust",
      List.map
        (fun (f : Adversary.family) ->
          Alcotest.test_case ("family " ^ f.Adversary.name) `Slow
            (test_family f.Adversary.name))
        Adversary.families
      @ [ Alcotest.test_case "corpus shape" `Quick test_corpus_shape;
          Alcotest.test_case "tiny-runs starves the ladder" `Slow
            test_starvation;
          Alcotest.test_case "islands ground truth" `Slow
            test_islands_ground_truth;
          Alcotest.test_case "whole corpus passes" `Slow
            test_whole_corpus_passes ] ) ]
