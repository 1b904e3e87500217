(* Tests for the E9_obs telemetry layer: sink semantics, the ndjson
   schema, and the golden property that a trace of a real rewrite is
   internally consistent and agrees with the rewriter's own Stats. *)

module Obs = E9_obs.Obs
module Json = E9_obs.Json
module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Trampoline = E9_core.Trampoline
module Stats = E9_core.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_null_sink () =
  let obs = Obs.null in
  check_bool "detached" false (Obs.enabled obs);
  Obs.accept obs ~addr:0x400000 ~tactic:Obs.B1 ~trampoline:0x700000 ~pad:0
    ~evictee_distance:0;
  Obs.gauge obs ~name:"x" ~value:1;
  check_int "no events" 0 (List.length (Obs.events obs));
  check_int "empty agg" 0 (Obs.agg obs).Obs.Agg.sites;
  (* span must still run the thunk and pass its value through *)
  check_int "span transparent" 41 (Obs.span obs "t" (fun () -> 41))

let test_ring_overflow () =
  let obs = Obs.ring ~capacity:4 () in
  check_bool "attached" true (Obs.enabled obs);
  for i = 0 to 9 do
    Obs.counter obs ~name:"c" ~value:i
  done;
  check_int "dropped oldest" 6 (Obs.dropped obs);
  let values =
    List.map
      (function Obs.Counter { value; _ } -> value | _ -> -1)
      (Obs.events obs)
  in
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 6; 7; 8; 9 ] values

let test_aggregator_sink () =
  let obs = Obs.aggregator () in
  Obs.accept obs ~addr:1 ~tactic:Obs.T1 ~trampoline:2 ~pad:3 ~evictee_distance:0;
  Obs.reject obs ~addr:4 ~tactic:Obs.T2 ~reason:Obs.No_successor;
  Obs.site obs ~addr:1 ~tactic:(Some Obs.T1);
  Obs.site obs ~addr:4 ~tactic:None;
  Obs.counter obs ~name:"k" ~value:2;
  Obs.counter obs ~name:"k" ~value:3;
  Obs.gauge obs ~name:"g" ~value:7;
  Obs.gauge obs ~name:"g" ~value:8;
  let a = Obs.agg obs in
  check_int "accepted t1" 1 a.Obs.Agg.accepted.(3);
  check_int "rejected no_successor" 1 a.Obs.Agg.rejected.(5);
  check_int "sites" 2 a.Obs.Agg.sites;
  check_int "patched" 1 a.Obs.Agg.sites_patched;
  check_int "failed" 1 a.Obs.Agg.sites_failed;
  check_int "pad bytes" 3 a.Obs.Agg.pad_bytes;
  check_int "counters sum" 5 (Hashtbl.find a.Obs.Agg.counters "k");
  check_int "gauges keep last" 8 (Hashtbl.find a.Obs.Agg.gauges "g");
  check_int "ring view empty" 0 (List.length (Obs.events obs))

let test_agg_merge () =
  let a = Obs.Agg.create () and b = Obs.Agg.create () in
  Obs.Agg.add_event a (Obs.Site { addr = 1; tactic = Some Obs.B1 });
  Obs.Agg.add_event a (Obs.Span { name = "s"; dur_ns = 1_000_000_000 });
  Obs.Agg.add_event b (Obs.Site { addr = 2; tactic = None });
  Obs.Agg.add_event b (Obs.Span { name = "s"; dur_ns = 500_000_000 });
  Obs.Agg.add_event a (Obs.Counter { name = "c"; value = 3 });
  Obs.Agg.add_event a (Obs.Counter { name = "c"; value = 4 });
  Obs.Agg.add_event b (Obs.Counter { name = "c"; value = 5 });
  Obs.Agg.add_event b (Obs.Counter { name = "only_b"; value = 2 });
  Obs.Agg.merge_into ~dst:a b;
  check_int "counter summed across merge" 12 (Obs.Agg.counter_total a "c");
  check_int "counter only in src" 2 (Obs.Agg.counter_total a "only_b");
  check_int "absent counter" 0 (Obs.Agg.counter_total a "absent");
  check_int "src counter untouched" 5 (Obs.Agg.counter_total b "c");
  check_int "sites" 2 a.Obs.Agg.sites;
  check_int "failed" 1 a.Obs.Agg.sites_failed;
  let calls, total = Hashtbl.find a.Obs.Agg.spans "s" in
  check_int "span calls" 2 calls;
  check_int "span total ns" 1_500_000_000 total;
  check_bool "span total s" true
    (abs_float (Obs.Agg.span_total a "s" -. 1.5) < 1e-12)

(* ------------------------------------------------------------------ *)
(* ndjson schema                                                       *)
(* ------------------------------------------------------------------ *)

(* Span durations are integer nanoseconds on the wire, so round-trips
   are exact structural equality. *)
let event_approx_eq a b = a = b

let sample_events =
  [ Obs.Attempt
      { addr = 0x400123;
        tactic = Obs.T2;
        outcome =
          Obs.Accepted { trampoline = 0x70_0040; pad = 2; evictee_distance = 5 } };
    Obs.Attempt
      { addr = 0x400200;
        tactic = Obs.B2;
        outcome = Obs.Rejected Obs.Pun_miss };
    Obs.Site { addr = 0x400123; tactic = Some Obs.T2 };
    Obs.Site { addr = 0x400300; tactic = None };
    Obs.Attempt
      { addr = 0x400400;
        tactic = Obs.B1;
        outcome = Obs.Rejected Obs.Injected };
    Obs.Span { name = "decode"; dur_ns = 250_000_000 };
    Obs.Gauge { name = "layout.occupied_intervals"; value = 17 };
    Obs.Counter { name = "emu.block_hits"; value = 12345 };
    Obs.Fault { site = "alloc"; fires = 3 } ]

let test_json_line_roundtrip () =
  List.iter
    (fun e ->
      let line = Json.to_string (Obs.event_to_json e) in
      match Json.of_string line with
      | Error m -> Alcotest.failf "reparse failed on %s: %s" line m
      | Ok j -> (
          match Obs.event_of_json j with
          | Error m -> Alcotest.failf "schema rejected %s: %s" line m
          | Ok e' ->
              check_bool (Printf.sprintf "roundtrip %s" line) true
                (event_approx_eq e e')))
    sample_events

let test_validate_rejects_bad_lines () =
  let expect_err label s =
    match Obs.validate_ndjson s with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  expect_err "not json" "{nope";
  expect_err "not an object" "42\n";
  expect_err "unknown kind" {|{"ev":"bogus"}|};
  expect_err "missing field" {|{"ev":"gauge","name":"x"}|};
  expect_err "unknown tactic" {|{"ev":"site","addr":1,"tactic":"T9"}|};
  expect_err "unknown reason"
    {|{"ev":"attempt","addr":1,"tactic":"B1","outcome":"rejected","reason":"gremlins"}|};
  expect_err "bad value type" {|{"ev":"counter","name":"x","value":"many"}|};
  expect_err "fault missing fires" {|{"ev":"fault","site":"alloc"}|}

let test_fault_events_and_sink_error () =
  let obs = Obs.ring () in
  Obs.fault obs ~site:"alloc" ~fires:2;
  Obs.fault obs ~site:"write" ~fires:1;
  let a = Obs.agg obs in
  check_int "fault events fold into counters" 2
    (Hashtbl.find a.Obs.Agg.counters "fault.alloc");
  check_int "per-site" 1 (Hashtbl.find a.Obs.Agg.counters "fault.write");
  let path = Filename.temp_file "e9obs" ".ndjson" in
  Sys.remove path;
  (* A failing sink is a typed error and leaves nothing behind — neither
     the target nor the temporary. *)
  (match Obs.write_ndjson ~fault:(fun () -> true) obs path with
  | () -> Alcotest.fail "expected Sink_error"
  | exception Obs.Sink_error _ -> ());
  check_bool "no file" false (Sys.file_exists path);
  check_bool "no temp left" true (E9_bits.Atomic_file.leftovers path = []);
  (* And the same sink succeeds cleanly afterwards with a valid trace. *)
  Obs.write_ndjson obs path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  match Obs.validate_ndjson contents with
  | Ok evs -> check_int "both fault events" 2 (List.length evs)
  | Error m -> Alcotest.failf "written trace invalid: %s" m

(* ------------------------------------------------------------------ *)
(* Golden trace of a real rewrite                                      *)
(* ------------------------------------------------------------------ *)

let profile seed =
  { Codegen.default_profile with Codegen.seed; functions = 40; iterations = 60 }

let traced_rewrite obs =
  let elf = Codegen.generate (profile 21L) in
  Rewriter.run ~obs elf ~select:Frontend.select_jumps
    ~template:(fun _ -> Trampoline.Counter)

let test_trace_golden () =
  let obs = Obs.ring () in
  let r = traced_rewrite obs in
  check_int "nothing dropped" 0 (Obs.dropped obs);
  let ndjson = Obs.to_ndjson obs in
  (* Every line passes the schema validator and reconstructs the event
     stream. *)
  let evs =
    match Obs.validate_ndjson ndjson with
    | Ok evs -> evs
    | Error m -> Alcotest.failf "trace failed validation: %s" m
  in
  check_int "every event survived the round trip"
    (List.length (Obs.events obs))
    (List.length evs);
  List.iter2
    (fun a b -> check_bool "line-level roundtrip" true (event_approx_eq a b))
    (Obs.events obs) evs;
  (* The trace must agree with the rewriter's own accounting. *)
  let a = Obs.Agg.of_events evs in
  let s = r.Rewriter.stats in
  check_int "sites = Stats.total" (Stats.total s) a.Obs.Agg.sites;
  check_int "patched = Stats.succeeded" (Stats.succeeded s)
    a.Obs.Agg.sites_patched;
  check_int "failed" s.Stats.failed a.Obs.Agg.sites_failed;
  check_int "b0" s.Stats.b0 a.Obs.Agg.accepted.(0);
  check_int "b1" s.Stats.b1 a.Obs.Agg.accepted.(1);
  check_int "b2" s.Stats.b2 a.Obs.Agg.accepted.(2);
  check_int "t1" s.Stats.t1 a.Obs.Agg.accepted.(3);
  check_int "t2" s.Stats.t2 a.Obs.Agg.accepted.(4);
  check_int "t3" s.Stats.t3 a.Obs.Agg.accepted.(5);
  check_int "per-tactic counts sum to sites patched" a.Obs.Agg.sites_patched
    (Array.fold_left ( + ) 0 a.Obs.Agg.accepted);
  check_bool "rewrite actually patched something" true (a.Obs.Agg.sites_patched > 0);
  (* Phase spans: one of each, non-negative. *)
  List.iter
    (fun name ->
      match Hashtbl.find_opt a.Obs.Agg.spans name with
      | None -> Alcotest.failf "missing span %S" name
      | Some (calls, total) ->
          check_int (name ^ " calls") 1 calls;
          check_bool (name ^ " non-negative") true (total >= 0))
    [ "decode"; "tactic_search"; "layout"; "serialize" ];
  (* Allocator gauges land in the trace. *)
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "gauge %S present" name) true
        (Hashtbl.mem a.Obs.Agg.gauges name))
    [ "layout.occupied_intervals"; "layout.trampoline_extents";
      "layout.trampoline_bytes"; "text.locked_bytes" ];
  (* When CI points E9_TRACE_DIR at an artifact directory, persist the
     validated trace there. *)
  match Sys.getenv_opt "E9_TRACE_DIR" with
  | Some dir when dir <> "" && Sys.file_exists dir && Sys.is_directory dir ->
      Obs.write_ndjson obs (Filename.concat dir "trace.ndjson")
  | _ -> ()

let test_aggregator_matches_ring () =
  (* The streaming aggregator must compute exactly the rollup a ring's
     buffered events reduce to (modulo span wall-clock noise). *)
  let ring = Obs.ring () and stream = Obs.aggregator () in
  ignore (traced_rewrite ring);
  ignore (traced_rewrite stream);
  let a = Obs.agg ring and b = Obs.agg stream in
  Alcotest.(check (array int)) "accepted" a.Obs.Agg.accepted b.Obs.Agg.accepted;
  Alcotest.(check (array int)) "rejected" a.Obs.Agg.rejected b.Obs.Agg.rejected;
  check_int "sites" a.Obs.Agg.sites b.Obs.Agg.sites;
  check_int "pad bytes" a.Obs.Agg.pad_bytes b.Obs.Agg.pad_bytes;
  let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  Alcotest.(check (list string)) "same spans" (names a.Obs.Agg.spans)
    (names b.Obs.Agg.spans);
  Alcotest.(check (list string)) "same gauges" (names a.Obs.Agg.gauges)
    (names b.Obs.Agg.gauges)

let test_detached_rewrite_unchanged () =
  (* A rewrite with the null sink must produce the same binary and stats
     as a traced one: observation must not perturb the subject. *)
  let ring = Obs.ring () in
  let traced = traced_rewrite ring in
  let plain = traced_rewrite Obs.null in
  check_bool "same output image" true
    (Elf_file.to_bytes traced.Rewriter.output
    = Elf_file.to_bytes plain.Rewriter.output);
  check_bool "same stats" true (traced.Rewriter.stats = plain.Rewriter.stats)

(* ------------------------------------------------------------------ *)
(* Json parser corners                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_parser_corners () =
  let ok s = Result.is_ok (Json.of_string s) in
  check_bool "nested" true (ok {|{"a":[1,2,{"b":null}],"c":-3.5e2}|});
  check_bool "escapes" true (ok {|{"s":"a\"b\\c\ndA"}|});
  check_bool "trailing garbage" false (ok {|{"a":1} extra|});
  check_bool "unterminated" false (ok {|{"a":|});
  check_bool "lone minus" false (ok "-");
  match Json.of_string {|{"x":7}|} with
  | Ok j -> check_bool "member" true (Json.member "x" j = Some (Json.Int 7))
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* Enum encoding golden                                                *)
(* ------------------------------------------------------------------ *)

(* The wire encoding of the two enums is an external contract: the
   Agg.rejected/accepted array positions feed BENCH_throughput.json and
   robust_matrix.json, and the names appear in every ndjson trace. This
   golden pins both — reordering a variant, renaming its spelling, or
   inserting one mid-enum must fail here, not silently reshuffle every
   downstream consumer's histograms. *)
let test_enum_encoding_golden () =
  let rejects =
    [ (Obs.Too_short, 0, "too_short");
      (Obs.Locked, 1, "locked");
      (Obs.Pun_miss, 2, "pun_miss");
      (Obs.Range, 3, "range");
      (Obs.Alloc_conflict, 4, "alloc_conflict");
      (Obs.No_successor, 5, "no_successor");
      (Obs.Budget, 6, "budget");
      (Obs.Injected, 7, "injected");
      (Obs.Dead_window, 8, "dead_window") ]
  in
  let tactics =
    [ (Obs.B0, 0, "B0"); (Obs.B1, 1, "B1"); (Obs.B2, 2, "B2");
      (Obs.T1, 3, "T1"); (Obs.T2, 4, "T2"); (Obs.T3, 5, "T3") ]
  in
  check_int "reject enum is exactly 9 wide" 9 (List.length rejects);
  let agg = (let obs = Obs.aggregator () in Obs.agg obs) in
  check_int "rejected array width" (List.length rejects)
    (Array.length agg.Obs.Agg.rejected);
  check_int "accepted array width" (List.length tactics)
    (Array.length agg.Obs.Agg.accepted);
  List.iter
    (fun (r, idx, name) ->
      Alcotest.(check string) ("spelling of " ^ name) name (Obs.reject_name r);
      (* One event per reason must land at exactly the pinned index. *)
      let obs = Obs.aggregator () in
      Obs.reject obs ~addr:0x400000 ~tactic:Obs.B1 ~reason:r;
      let a = Obs.agg obs in
      Array.iteri
        (fun i n ->
          check_int
            (Printf.sprintf "%s counts at index %d only" name i)
            (if i = idx then 1 else 0)
            n)
        a.Obs.Agg.rejected)
    rejects;
  List.iter
    (fun (t, idx, name) ->
      Alcotest.(check string) ("spelling of " ^ name) name (Obs.tactic_name t);
      let obs = Obs.aggregator () in
      Obs.accept obs ~addr:0x400000 ~tactic:t ~trampoline:0x700000 ~pad:0
        ~evictee_distance:0;
      let a = Obs.agg obs in
      Array.iteri
        (fun i n ->
          check_int
            (Printf.sprintf "%s counts at index %d only" name i)
            (if i = idx then 1 else 0)
            n)
        a.Obs.Agg.accepted)
    tactics;
  (* The ndjson spellings parse back to the same variants. *)
  List.iter
    (fun (r, _, _) ->
      let e =
        Obs.Attempt
          { addr = 1; tactic = Obs.B1; outcome = Obs.Rejected r }
      in
      match Obs.event_of_json (Obs.event_to_json e) with
      | Ok e' -> check_bool "reject json roundtrip" true (e = e')
      | Error m -> Alcotest.failf "reject %s: %s" (Obs.reject_name r) m)
    rejects

let suites =
  [ ( "obs",
      [ Alcotest.test_case "null sink is free and transparent" `Quick
          test_null_sink;
        Alcotest.test_case "ring drops oldest on overflow" `Quick
          test_ring_overflow;
        Alcotest.test_case "aggregator folds events" `Quick test_aggregator_sink;
        Alcotest.test_case "aggregate merge" `Quick test_agg_merge;
        Alcotest.test_case "ndjson line roundtrip" `Quick
          test_json_line_roundtrip;
        Alcotest.test_case "validator rejects bad lines" `Quick
          test_validate_rejects_bad_lines;
        Alcotest.test_case "fault events and sink containment" `Quick
          test_fault_events_and_sink_error;
        Alcotest.test_case "golden trace of a rewrite" `Quick test_trace_golden;
        Alcotest.test_case "aggregator matches ring rollup" `Quick
          test_aggregator_matches_ring;
        Alcotest.test_case "tracing does not perturb the rewrite" `Quick
          test_detached_rewrite_unchanged;
        Alcotest.test_case "json parser corners" `Quick
          test_json_parser_corners;
        Alcotest.test_case "enum encoding golden" `Quick
          test_enum_encoding_golden ] ) ]
