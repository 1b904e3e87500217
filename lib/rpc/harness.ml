module Codegen = E9_workload.Codegen
module Rewriter = E9_core.Rewriter
module Patchspec = E9_spec.Patchspec
module Json = E9_obs.Json
module Fault = E9_fault.Fault

type fcase = { seed : int; rules : Fault.rule list }

let fcase_to_string f =
  Printf.sprintf "rpc-fault[%d] inject=%S" f.seed (Fault.to_string f.rules)

(* ------------------------------------------------------------------ *)
(* Scripted sessions                                                   *)
(* ------------------------------------------------------------------ *)

let run_session server lines =
  if not (Server.accept_gate server) then ([], false)
  else begin
    let conn = Server.connect server in
    Fun.protect
      ~finally:(fun () -> Server.close_conn conn)
      (fun () ->
        let rec go acc alive = function
          | [] -> (List.rev acc, alive)
          | _ when not alive -> (List.rev acc, false)
          | l :: rest ->
              let outs, alive = Server.feed conn l in
              go (List.rev_append outs acc) alive rest
        in
        go [] true lines)
  end

let request ~id meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.Str "2.0"); ("id", Json.Int id);
         ("method", Json.Str meth); ("params", Json.Obj params) ])

let default_spec = "patch jumps with empty"

let script ?(spec = default_spec) ?filename raw =
  let emit_params =
    [ ("data", Json.Bool true) ]
    @ match filename with
      | Some path -> [ ("filename", Json.Str path) ]
      | None -> []
  in
  [ request ~id:1 "binary" [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
    request ~id:2 "patch" [ ("spec", Json.Str spec) ];
    request ~id:3 "emit" emit_params ]

let reference ?(spec = default_spec) raw =
  let module Tool = E9_tool.Tool in
  let elf = Elf_file.of_bytes raw in
  let rules = Patchspec.parse spec in
  Elf_file.to_bytes (Tool.run elf rules).Tool.rewrite.Rewriter.output

(* ------------------------------------------------------------------ *)
(* Fault campaign                                                      *)
(* ------------------------------------------------------------------ *)

let gen_rule =
  let open QCheck2.Gen in
  let* site =
    oneofl [ Fault.Rpc_accept; Fault.Rpc_read; Fault.Rpc_decode; Fault.Rpc_emit ]
  in
  (* Sessions are short (3 lines, 1 emit): thresholds skew low so most
     rules actually reach an occurrence. *)
  let* trigger =
    oneof
      [ map (fun n -> Fault.At n) (int_bound 5);
        map (fun n -> Fault.From n) (int_bound 4);
        map (fun n -> Fault.Every (n + 1)) (int_bound 2) ]
  in
  return { Fault.site; trigger }

let gen_rules = QCheck2.Gen.(list_size (int_range 1 2) gen_rule)

type summary = {
  cases : int;
  served : int;
  dropped : int;
  typed : int;
  failures : (string * string) list;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "rpc fault campaign: %d cases — %d served, %d dropped, %d typed, %d \
     contract violations"
    s.cases s.served s.dropped s.typed
    (List.length s.failures)

(* The campaign's fixed input: tiny, but with enough jump sites that a
   rewrite actually patches something. Generated once per campaign. *)
let campaign_profile =
  { Codegen.default_profile with
    Codegen.name = "rpc-fault";
    seed = 421L;
    functions = 5;
    iterations = 2 }

type classification = Served | Dropped | Typed_kill | Violated of string

let find_emit_response responses =
  List.find_map
    (fun line ->
      match Json.of_string line with
      | Ok j -> (
          match Json.member "id" j with
          | Some (Json.Int 3) -> Some j
          | _ -> None)
      | Error _ -> None)
    responses

let has_injected_error responses =
  List.exists
    (fun line ->
      match Json.of_string line with
      | Ok j -> (
          match Json.member "error" j with
          | Some err -> Json.member "code" err = Some (Json.Int Proto.injected_fault)
          | None -> false)
      | Error _ -> false)
    responses

let classify ~expected_hex (responses, alive) =
  if has_injected_error responses then
    if alive then Violated "injected-fault response but the session survived"
    else Typed_kill
  else
    match find_emit_response responses with
    | Some j -> (
        match Json.member "result" j with
        | Some result -> (
            match
              (Json.member "verified" result, Json.member "data" result)
            with
            | Some (Json.Bool true), Some (Json.Str hex) ->
                if hex = expected_hex then Served
                else Violated "served bytes differ from the one-shot rewrite"
            | _ -> Violated "emit result is missing verified/data")
        | None -> Violated "emit answered with a non-injected error")
    | None ->
        (* No emit response and no injected error: the session must have
           been dropped at the edge (accept gate or read loss). *)
        if alive then Violated "session finished alive without an emit response"
        else Dropped

let no_tmp_files dir =
  Array.for_all
    (fun name -> not (Filename.check_suffix name ".tmp"))
    (Sys.readdir dir)

let run_fcase ~raw ~expected ~expected_hex ~dir f =
  let fault = Fault.create f.rules in
  let server = Server.create ~fault () in
  let out_path = Filename.concat dir (Printf.sprintf "out-%d.elf" f.seed) in
  let sessions =
    [ script raw; script raw; script ~filename:out_path raw ]
  in
  let classes =
    List.map (fun s -> classify ~expected_hex (run_session server s)) sessions
  in
  (* Daemon survival: whatever the rules did to individual sessions, the
     server value must still accept work attempts without raising, and
     its books must balance. *)
  let started, closed = Server.sessions server in
  let violations =
    List.filter_map
      (function Violated m -> Some m | _ -> None)
      classes
    @ (if started <> closed then
         [ Printf.sprintf "session books differ: %d started, %d closed"
             started closed ]
       else [])
    @ (match Sys.file_exists out_path with
      | false -> []
      | true ->
          let written =
            In_channel.with_open_bin out_path In_channel.input_all
          in
          if Bytes.unsafe_of_string written = expected then []
          else [ "emitted file differs from the one-shot rewrite" ])
    @ if no_tmp_files dir then [] else [ "leftover .tmp file" ]
  in
  (classes, violations)

let campaign ?(progress = fun _ -> ()) ~n ~seed () =
  let raw = Elf_file.to_bytes (Codegen.generate campaign_profile) in
  let expected = reference raw in
  let expected_hex = Proto.hex_of_bytes expected in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "e9rpc-fault-%d-%d" (Unix.getpid ()) seed)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let summary =
        ref { cases = 0; served = 0; dropped = 0; typed = 0; failures = [] }
      in
      for i = 0 to n - 1 do
        progress i;
        let rand = Random.State.make [| seed; i |] in
        let rules = QCheck2.Gen.generate1 ~rand gen_rules in
        let f = { seed = i; rules } in
        let classes, violations =
          match run_fcase ~raw ~expected ~expected_hex ~dir f with
          | r -> r
          | exception e ->
              ( [],
                [ Printf.sprintf "exception escaped the daemon: %s"
                    (Printexc.to_string e) ] )
        in
        let s = !summary in
        summary :=
          {
            cases = s.cases + 1;
            served =
              s.served
              + List.length (List.filter (( = ) Served) classes);
            dropped =
              s.dropped
              + List.length (List.filter (( = ) Dropped) classes);
            typed =
              s.typed
              + List.length (List.filter (( = ) Typed_kill) classes);
            failures =
              s.failures
              @ List.map (fun m -> (fcase_to_string f, m)) violations;
          }
      done;
      !summary)
