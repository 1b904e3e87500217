module Json = E9_obs.Json
module Obs = E9_obs.Obs
module Rewriter = E9_core.Rewriter
module Stats = E9_core.Stats
module Patchspec = E9_spec.Patchspec
module Tool = E9_tool.Tool
module Fault = E9_fault.Fault
module Static = E9_check.Static

type decoded = Frontend.text * Frontend.site list

type emit_entry = {
  bytes : bytes;
  stats : Stats.t;
  size_pct : float;
  trampoline_bytes : int;
  mappings : int;
  verified : bool;
}

type ctx = {
  decode_cache : decoded Cache.t;
  result_cache : emit_entry Cache.t;
  raw_cache : bytes Cache.t;
  bypassed : int Atomic.t;
  fault : Fault.t;
  jobs : int;
  status : unit -> Json.t;
}

type t = {
  ctx : ctx;
  obs : Obs.t;
  trampolines : (string, Patchspec.patch) Hashtbl.t;
  mutable binary : (Elf_file.t * string) option;  (** parsed input, content hash *)
  mutable rules : Patchspec.rule list;  (** reverse order *)
  mutable tool : bool;
      (** [rules] came from [tool] messages: emit injects the runtime *)
  mutable reserves : (int * int) list;  (** reverse order *)
  mutable opts : Rewriter.options;
  mutable disasm_from : int option;
  mutable jobs : int;
  mutable requests : int;
  mutable emits : int;
}

let create ctx ~obs =
  {
    ctx;
    obs;
    trampolines = Hashtbl.create 8;
    binary = None;
    rules = [];
    tool = false;
    reserves = [];
    opts = Rewriter.default_options;
    disasm_from = None;
    jobs = ctx.jobs;
    requests = 0;
    emits = 0;
  }

let requests t = t.requests
let emits t = t.emits

type verdict = { reply : Json.t option; close : bool; stop : bool }

(* Internal typed failures; [handle] renders each as its error code. *)
exception Invalid_params of string
exception State_error of string
exception Verify_refused of string

let bad fmt = Printf.ksprintf (fun m -> raise (Invalid_params m)) fmt
let state fmt = Printf.ksprintf (fun m -> raise (State_error m)) fmt

let int_param params key =
  match Proto.int_param params key with
  | `Ok n -> Some n
  | `Missing -> None
  | `Bad -> bad "%s must be an integer (or a decimal/0x-hex string)" key

let string_param params key =
  match Proto.string_param params key with
  | `Ok s -> Some s
  | `Missing -> None
  | `Bad -> bad "%s must be a string" key

let bool_param params key =
  match Proto.bool_param params key with
  | `Ok b -> Some b
  | `Missing -> None
  | `Bad -> bad "%s must be a boolean" key

let require what = function Some v -> v | None -> bad "missing %s param" what

(* ------------------------------------------------------------------ *)
(* binary                                                              *)
(* ------------------------------------------------------------------ *)

let read_raw path =
  match open_in_bin path with
  | exception Sys_error m -> raise (Elf_file.Io_error m)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> s
          | exception (Sys_error m) -> raise (Elf_file.Io_error m)
          | exception End_of_file ->
              raise (Elf_file.Io_error (path ^ ": short read")))

let do_binary t params =
  (if t.binary <> None then
     state "binary already loaded; emit it before loading another");
  let raw =
    match (string_param params "filename", string_param params "data") with
    | Some _, Some _ -> bad "filename and data are exclusive"
    | Some path, None -> Bytes.unsafe_of_string (read_raw path)
    | None, Some hex -> (
        match Proto.bytes_of_hex hex with
        | Ok b -> b
        | Error m -> bad "data: %s" m)
    | None, None -> bad "binary needs a filename or data param"
  in
  let elf = Elf_file.of_bytes raw in
  let hash = Cache.fnv1a64 raw in
  (* Retain the raw bytes (bounded LRU) so a later [delta] message can
     name this revision as its base and ship only the changed bytes. *)
  Cache.add t.ctx.raw_cache ("b:" ^ hash) raw;
  t.binary <- Some (elf, hash);
  Json.Obj
    [ ("ok", Json.Bool true); ("size", Json.Int (Bytes.length raw));
      ("hash", Json.Str hash) ]

(* The patch-message delta path (DESIGN.md §13): a client rewriting a
   series of revisions names a retained base by hash and ships only the
   changed byte runs, instead of re-sending the whole binary. The
   reconstructed revision is loaded exactly as [binary] would load it
   (and retained in turn, so revisions can chain). *)
let do_delta t params =
  (if t.binary <> None then
     state "binary already loaded; emit it before loading another");
  let base = require "base" (string_param params "base") in
  let edits =
    match Json.member "edits" params with
    | Some (Json.List l) -> l
    | Some _ -> bad "edits must be a list"
    | None -> bad "missing edits param"
  in
  match Cache.find t.ctx.raw_cache ("b:" ^ base) with
  | None ->
      state "delta base %s is not retained (load it with binary first)" base
  | Some raw0 ->
      let raw = Bytes.copy raw0 in
      List.iter
        (fun e ->
          let offset = require "offset" (int_param e "offset") in
          let hex = require "hex" (string_param e "hex") in
          match Proto.bytes_of_hex hex with
          | Error m -> bad "hex: %s" m
          | Ok b ->
              if offset < 0 || offset + Bytes.length b > Bytes.length raw
              then
                bad "edit [%d, %d) outside the base binary (%d bytes)" offset
                  (offset + Bytes.length b)
                  (Bytes.length raw);
              Bytes.blit b 0 raw offset (Bytes.length b))
        edits;
      let elf = Elf_file.of_bytes raw in
      let hash = Cache.fnv1a64 raw in
      Cache.add t.ctx.raw_cache ("b:" ^ hash) raw;
      t.binary <- Some (elf, hash);
      Json.Obj
        [ ("ok", Json.Bool true); ("size", Json.Int (Bytes.length raw));
          ("hash", Json.Str hash); ("base", Json.Str base);
          ("edits", Json.Int (List.length edits)) ]

(* ------------------------------------------------------------------ *)
(* options                                                             *)
(* ------------------------------------------------------------------ *)

let do_options t params =
  let fields = match params with Json.Obj l -> l | _ -> [] in
  List.iter
    (fun (key, _) ->
      match key with
      | "granularity" | "grouping" | "shared" | "loader" | "b0_fallback"
      | "t1" | "t2" | "t3" | "disasm_from" | "jobs" | "plan" -> ()
      | other -> bad "unknown option %s" other)
    fields;
  let o = t.opts in
  let tac = o.Rewriter.tactics in
  let upd v f = match v with None -> () | Some v -> f v in
  let tactics = ref tac in
  upd (bool_param params "t1") (fun v ->
      tactics := { !tactics with E9_core.Tactics.enable_t1 = v });
  upd (bool_param params "t2") (fun v ->
      tactics := { !tactics with E9_core.Tactics.enable_t2 = v });
  upd (bool_param params "t3") (fun v ->
      tactics := { !tactics with E9_core.Tactics.enable_t3 = v });
  upd (bool_param params "b0_fallback") (fun v ->
      tactics := { !tactics with E9_core.Tactics.b0_fallback = v });
  let loader =
    match string_param params "loader" with
    | None -> o.Rewriter.loader
    | Some "table" -> Rewriter.Table
    | Some "stub" -> Rewriter.Stub
    | Some other -> bad "loader must be table or stub, not %s" other
  in
  let granularity =
    match int_param params "granularity" with
    | None -> o.Rewriter.granularity
    | Some m when m >= 1 -> m
    | Some m -> bad "granularity must be >= 1, not %d" m
  in
  t.opts <-
    { o with
      Rewriter.tactics = !tactics;
      loader;
      granularity;
      grouping =
        Option.value (bool_param params "grouping") ~default:o.Rewriter.grouping;
      reserve_below_base =
        Option.value (bool_param params "shared")
          ~default:o.Rewriter.reserve_below_base };
  (* Kept for clients that still send it: validated as a boolean,
     otherwise ignored (DESIGN.md §10). *)
  ignore (bool_param params "plan");
  upd (int_param params "disasm_from") (fun a -> t.disasm_from <- Some a);
  upd (int_param params "jobs") (fun j ->
      if j < 1 then bad "jobs must be >= 1, not %d" j else t.jobs <- j);
  Json.Obj [ ("ok", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* trampoline / reserve / patch                                        *)
(* ------------------------------------------------------------------ *)

(* A trampoline word is a patch in the [-P] language; an unknown one is a
   bad param. *)
let patch_of_word what word =
  match Patchspec.parse_patch word with
  | patch -> patch
  | exception Patchspec.Parse_error { message; _ } -> bad "%s: %s" what message

let do_trampoline t params =
  let name = require "name" (string_param params "name") in
  let template = require "template" (string_param params "template") in
  Hashtbl.replace t.trampolines name (patch_of_word "template" template);
  Json.Obj [ ("ok", Json.Bool true) ]

let do_reserve t params =
  let address = require "address" (int_param params "address") in
  let length = require "length" (int_param params "length") in
  if length < 1 then bad "length must be >= 1, not %d" length;
  t.reserves <- (address, length) :: t.reserves;
  Json.Obj [ ("ok", Json.Bool true); ("reserved", Json.Int (List.length t.reserves)) ]

(* Patch specs and tool pairs are rules of one language, but tool rules
   rewrite the input plus an injected instrumentation runtime, so one
   emit takes its rules from one vocabulary. *)
let add_rules t ~tool rules =
  t.tool <- tool;
  t.rules <- List.rev_append rules t.rules;
  Json.Obj
    [ ("ok", Json.Bool true); ("rules", Json.Int (List.length t.rules)) ]

let do_patch t params =
  (if t.tool && t.rules <> [] then
     state "tool rules pending; emit them before adding patch rules");
  let rules =
    match (string_param params "spec", string_param params "selector") with
    | Some _, Some _ -> bad "spec and selector are exclusive"
    | Some src, None -> Patchspec.parse src
    | None, Some selector ->
        let word = require "trampoline" (string_param params "trampoline") in
        (* A name registered via the trampoline message aliases a patch;
           otherwise the word must itself be one. *)
        let patch =
          match Hashtbl.find_opt t.trampolines word with
          | Some patch -> patch
          | None -> patch_of_word "trampoline" word
        in
        [ { Patchspec.selector = Patchspec.parse_selector selector; patch } ]
    | None, None -> bad "patch needs a spec or a selector/trampoline pair"
  in
  (* Refuse runtime-only patches (print, call) now, typed, rather than
     at emit. *)
  ignore (Tool.lower rules);
  add_rules t ~tool:false rules

(* The tool vocabulary (DESIGN.md §15): one [-M MATCH -P PATCH] pair per
   message, first-match-wins across the accumulated pairs. *)
let do_tool t params =
  (if (not t.tool) && t.rules <> [] then
     state "patch rules pending; emit them before adding tool rules");
  let m = require "match" (string_param params "match") in
  let p = require "patch" (string_param params "patch") in
  add_rules t ~tool:true [ Tool.rule_of ~m ~p () ]

(* ------------------------------------------------------------------ *)
(* emit                                                                *)
(* ------------------------------------------------------------------ *)

let stats_json (s : Stats.t) =
  Json.Obj
    [ ("b0", Json.Int s.Stats.b0); ("b1", Json.Int s.Stats.b1);
      ("b2", Json.Int s.Stats.b2); ("t1", Json.Int s.Stats.t1);
      ("t2", Json.Int s.Stats.t2); ("t3", Json.Int s.Stats.t3);
      ("failed", Json.Int s.Stats.failed) ]

let from_tag = function None -> "-" | Some a -> Printf.sprintf "%x" a

(* Inject the runtime if the rules are tool rules, rewrite, verify the
   output against the rewrite input (the injected pages are part of what
   the verifier must account for), cache. *)
let do_emit t params =
  let elf, bhash =
    match t.binary with
    | Some b -> b
    | None -> state "emit needs a loaded binary"
  in
  if Fault.fires t.ctx.fault Fault.Rpc_emit then
    raise (Fault.Injected "injected rpc emit fault");
  let filename = string_param params "filename" in
  let want_data = Option.value (bool_param params "data") ~default:false in
  let rules = List.rev t.rules in
  let opts = { t.opts with Rewriter.keep_ranges = List.rev t.reserves } in
  let okey =
    Rewriter.options_signature opts ^ ";from=" ^ from_tag t.disasm_from
  in
  let rt_tag = if t.tool then "rt" else "-" in
  let key =
    Printf.sprintf "r:%s:%s:%s:%s" bhash rt_tag
      (Cache.fnv1a64_string (Patchspec.fragment_key rules))
      (Cache.fnv1a64_string okey)
  in
  let entry, cache_tag =
    match Cache.find t.ctx.result_cache key with
    | Some e ->
        Obs.counter t.obs ~name:"rpc_cache_hits" ~value:1;
        (* The result hit short-circuits before the decode cache is even
           consulted: count it so the decode cache's 0%% hit rate under a
           hot result cache reads as "bypassed", not "useless". *)
        Atomic.incr t.ctx.bypassed;
        (e, "hit")
    | None ->
        Obs.counter t.obs ~name:"rpc_cache_misses" ~value:1;
        let runtime = if t.tool then Some (Tool.inject elf) else None in
        let input =
          match runtime with Some rt -> rt.Tool.augmented | None -> elf
        in
        let dkey =
          Printf.sprintf "d:%s:%s:%s" bhash rt_tag (from_tag t.disasm_from)
        in
        let decoded =
          match Cache.find t.ctx.decode_cache dkey with
          | Some d -> d
          | None ->
              let d =
                Obs.span t.obs "rpc_decode" (fun () ->
                    Frontend.disassemble ?from:t.disasm_from input)
              in
              Cache.add t.ctx.decode_cache dkey d;
              d
        in
        let select, template = Tool.lower ?runtime rules in
        let r =
          Obs.span t.obs "rpc_rewrite" (fun () ->
              Rewriter.run ~options:opts ~obs:t.obs ~jobs:t.jobs
                ?disasm_from:t.disasm_from ~frontend:(fun _ -> decoded) input
                ~select ~template)
        in
        (match
           Obs.span t.obs "rpc_verify" (fun () ->
               Static.verify ?disasm_from:t.disasm_from ~original:input
                 r.Rewriter.output)
         with
        | Ok _ -> ()
        | Error e ->
            raise
              (Verify_refused
                 (Format.asprintf "%a" Static.pp_error e)));
        let bytes = Elf_file.to_bytes r.Rewriter.output in
        let entry =
          {
            bytes;
            stats = r.Rewriter.stats;
            size_pct = Rewriter.size_pct r;
            trampoline_bytes = r.Rewriter.trampoline_bytes;
            mappings = r.Rewriter.mappings;
            verified = true;
          }
        in
        Cache.add t.ctx.result_cache key entry;
        (entry, "miss")
  in
  (match filename with
  | Some path -> (
      try E9_bits.Atomic_file.write path (Bytes.unsafe_to_string entry.bytes)
      with Sys_error m -> raise (Elf_file.Io_error m))
  | None -> ());
  (* Reset the per-binary state; options and named trampolines are
     connection-level and survive. *)
  t.binary <- None;
  t.rules <- [];
  t.tool <- false;
  t.reserves <- [];
  t.emits <- t.emits + 1;
  Json.Obj
    ([ ("ok", Json.Bool true); ("cache", Json.Str cache_tag);
       ("size", Json.Int (Bytes.length entry.bytes));
       ("size_pct", Json.Float entry.size_pct);
       ("trampoline_bytes", Json.Int entry.trampoline_bytes);
       ("mappings", Json.Int entry.mappings);
       ("verified", Json.Bool entry.verified);
       ("stats", stats_json entry.stats) ]
    @ (match filename with
      | Some path -> [ ("wrote", Json.Str path) ]
      | None -> [])
    @ if want_data then [ ("data", Json.Str (Proto.hex_of_bytes entry.bytes)) ]
      else [])

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let do_flush t =
  let _ = Cache.flush t.ctx.decode_cache in
  let _ = Cache.flush t.ctx.raw_cache in
  let generation = Cache.flush t.ctx.result_cache in
  Json.Obj [ ("ok", Json.Bool true); ("generation", Json.Int generation) ]

let handle t (req : Proto.request) =
  t.requests <- t.requests + 1;
  Obs.counter t.obs ~name:"rpc_requests" ~value:1;
  let ok ?(close = false) ?(stop = false) result =
    let reply =
      match req.Proto.id with
      | None -> None
      | Some id -> Some (Proto.response id result)
    in
    { reply; close; stop }
  in
  let error ?(close = false) code message kind =
    Obs.counter t.obs ~name:"rpc_errors" ~value:1;
    let reply =
      match req.Proto.id with
      | None -> None
      | Some id ->
          Some
            (Proto.error_response id ~code ~message
               ~data:(Json.Obj [ ("kind", Json.Str kind) ])
               ())
    in
    { reply; close; stop = false }
  in
  let params = req.Proto.params in
  match
    Obs.span t.obs ("rpc_" ^ req.Proto.meth) (fun () ->
        match req.Proto.meth with
        | "ping" -> ok (Json.Str "pong")
        | "binary" -> ok (do_binary t params)
        | "options" -> ok (do_options t params)
        | "trampoline" -> ok (do_trampoline t params)
        | "reserve" -> ok (do_reserve t params)
        | "patch" -> ok (do_patch t params)
        | "tool" -> ok (do_tool t params)
        | "delta" -> ok (do_delta t params)
        | "emit" -> ok (do_emit t params)
        | "status" -> ok (t.ctx.status ())
        | "flush" -> ok (do_flush t)
        | "shutdown" ->
            ok ~close:true ~stop:true
              (Json.Obj
                 [ ("ok", Json.Bool true); ("stopping", Json.Bool true) ])
        | other ->
            error Proto.method_not_found ("method not found: " ^ other)
              "method")
  with
  | verdict -> verdict
  | exception Invalid_params m -> error Proto.invalid_params m "params"
  | exception State_error m -> error Proto.state_error m "state"
  | exception Elf_file.Malformed m ->
      error Proto.malformed_binary ("malformed ELF: " ^ m) "elf"
  | exception Frontend.Error m -> error Proto.rewrite_refused m "frontend"
  | exception Rewriter.Error m -> error Proto.rewrite_refused m "rewrite"
  | exception Elf_file.Io_error m -> error Proto.io_error m "io"
  | exception Obs.Sink_error m -> error Proto.io_error m "trace"
  | exception Patchspec.Parse_error { line; col; message } ->
      error Proto.spec_error (Printf.sprintf "%d:%d: %s" line col message)
        "spec"
  | exception Tool.Error m -> error Proto.spec_error m "tool"
  | exception Invalid_argument m ->
      (* An argument error outside the rewriter's per-site fence (which
         types template/site mismatches as [Rewriter.Error]): refuse the
         rewrite, keep the session. *)
      error Proto.rewrite_refused m "template"
  | exception Verify_refused m ->
      error Proto.verify_failed ("verification refused the output: " ^ m)
        "verify"
  | exception Fault.Injected m ->
      (* Session-fatal, daemon-safe: the typed response goes out, the
         session closes, sibling sessions never notice (DESIGN.md §13). *)
      error ~close:true Proto.injected_fault m "injected"
