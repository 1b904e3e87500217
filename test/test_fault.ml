(* Tests for E9_fault: spec parsing and trigger semantics. *)

module Fault = E9_fault.Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* parse / to_string                                                   *)
(* ------------------------------------------------------------------ *)

let test_parse_forms () =
  let rules = Fault.parse "alloc@3,b0alloc@5+,trace%2,decode@0x400" in
  Alcotest.(check string)
    "round-trips" "alloc@3,b0alloc@5+,trace%2,decode@1024"
    (Fault.to_string rules);
  check_int "four rules" 4 (List.length rules)

let test_parse_whitespace_and_case () =
  let rules = Fault.parse " Alloc@1 , WRITE@0 " in
  Alcotest.(check string)
    "normalized" "alloc@1,write@0" (Fault.to_string rules)

let test_parse_errors () =
  let bad spec =
    match Fault.parse spec with
    | _ -> Alcotest.failf "accepted %S" spec
    | exception Fault.Parse_error _ -> ()
  in
  check_int "empty spec = no rules" 0 (List.length (Fault.parse ""));
  bad "alloc";
  bad "alloc@";
  bad "alloc@x";
  bad "nosuchsite@3";
  bad "alloc%0";
  bad "alloc@3,"

let test_site_names_bijective () =
  Array.iter
    (fun s ->
      Alcotest.(check (option bool))
        (Fault.site_name s) (Some true)
        (Option.map (fun s' -> s' = s) (Fault.site_of_name (Fault.site_name s))))
    Fault.sites

(* ------------------------------------------------------------------ *)
(* trigger semantics                                                   *)
(* ------------------------------------------------------------------ *)

(* Drive [fires] n times and collect which occurrences fired. *)
let fired_occurrences t site n =
  List.filter_map
    (fun i -> if Fault.fires t site then Some i else None)
    (List.init n Fun.id)

let test_trigger_at () =
  let t = Fault.create (Fault.parse "alloc@3") in
  Alcotest.(check (list int))
    "only occurrence 3" [ 3 ]
    (fired_occurrences t Fault.Alloc 8);
  check_int "fired count" 1 (Fault.fired t Fault.Alloc)

let test_trigger_from () =
  let t = Fault.create (Fault.parse "write@2+") in
  Alcotest.(check (list int))
    "2 and onward" [ 2; 3; 4; 5 ]
    (fired_occurrences t Fault.Write 6)

let test_trigger_every () =
  let t = Fault.create (Fault.parse "trace%3") in
  Alcotest.(check (list int))
    "multiples of 3" [ 0; 3; 6 ]
    (fired_occurrences t Fault.Trace 8)

let test_sites_independent () =
  let t = Fault.create (Fault.parse "alloc@0") in
  check_bool "other sites never fire" false (Fault.fires t Fault.Write);
  check_bool "alloc occurrence 0 fires" true (Fault.fires t Fault.Alloc);
  check_bool "alloc occurrence 1 does not" false (Fault.fires t Fault.Alloc)

let test_decode_cut () =
  Alcotest.(check (option int))
    "no decode rule" None
    (Fault.decode_cut (Fault.create (Fault.parse "alloc@1")));
  Alcotest.(check (option int))
    "min over rules" (Some 0x80)
    (Fault.decode_cut (Fault.create (Fault.parse "decode@0x100,decode@0x80")))

let test_none_is_inert () =
  check_bool "is_none" true (Fault.is_none Fault.none);
  for _ = 1 to 50 do
    Array.iter
      (fun s -> check_bool "never fires" false (Fault.fires Fault.none s))
      Fault.sites
  done;
  check_int "nothing recorded" 0 (Fault.fired_total Fault.none)

let suites =
  [ ( "fault",
      [ Alcotest.test_case "parse forms" `Quick test_parse_forms;
        Alcotest.test_case "parse whitespace/case" `Quick
          test_parse_whitespace_and_case;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "site names bijective" `Quick
          test_site_names_bijective;
        Alcotest.test_case "trigger @N" `Quick test_trigger_at;
        Alcotest.test_case "trigger @N+" `Quick test_trigger_from;
        Alcotest.test_case "trigger %N" `Quick test_trigger_every;
        Alcotest.test_case "sites independent" `Quick test_sites_independent;
        Alcotest.test_case "decode cut" `Quick test_decode_cut;
        Alcotest.test_case "none is inert" `Quick test_none_is_inert ] ) ]
