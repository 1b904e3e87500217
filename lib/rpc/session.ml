module Json = E9_obs.Json
module Obs = E9_obs.Obs
module Rewriter = E9_core.Rewriter
module Stats = E9_core.Stats
module Patchspec = E9_spec.Patchspec
module Tool = E9_tool.Tool
module Fault = E9_fault.Fault
module Static = E9_check.Static

type emit_entry = {
  bytes : bytes;
  stats : Stats.t;
  size_pct : float;
  trampoline_bytes : int;
  mappings : int;
  verified : bool;
}

type ctx = {
  decode_cache : Frontend.index Cache.t;
  result_cache : emit_entry Cache.t;
  raw_cache : bytes Cache.t;
  bypassed : int Atomic.t;
  fault : Fault.t;
  status : unit -> Json.t;
}

type t = {
  ctx : ctx;
  obs : Obs.t;
  trampolines : (string, Patchspec.patch) Hashtbl.t;
  mutable binary : (Elf_file.t * string) option;  (** parsed input, content hash *)
  mutable rules : Patchspec.rule list;  (** reverse order *)
  mutable reserves : (int * int) list;  (** reverse order *)
  mutable opts : Rewriter.options;
  mutable code_start : int option;  (** the wire's [disasm_from] *)
}

let create ctx ~obs =
  {
    ctx;
    obs;
    trampolines = Hashtbl.create 8;
    binary = None;
    rules = [];
    reserves = [];
    opts = Rewriter.default_options;
    code_start = None;
  }

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
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> raise (Elf_file.Io_error m)

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
      | "t1" | "t2" | "t3" | "disasm_from" | "plan" -> ()
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
  upd (int_param params "disasm_from") (fun a -> t.code_start <- Some a);
  Json.Obj [ ("ok", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* trampoline / reserve / patch / tool                                 *)
(* ------------------------------------------------------------------ *)

let do_trampoline t params =
  let name = require "name" (string_param params "name") in
  let template = require "template" (string_param params "template") in
  Hashtbl.replace t.trampolines name (Patchspec.parse_patch template);
  Json.Obj [ ("ok", Json.Bool true) ]

let do_reserve t params =
  let address = require "address" (int_param params "address") in
  let length = require "length" (int_param params "length") in
  if length < 1 then bad "length must be >= 1, not %d" length;
  t.reserves <- (address, length) :: t.reserves;
  Json.Obj [ ("ok", Json.Bool true); ("reserved", Json.Int (List.length t.reserves)) ]

(* Patch specs and tool pairs are rules of one language: both messages
   add to the one rule list the next emit rewrites. *)
let add_rules t rules =
  t.rules <- List.rev_append rules t.rules;
  Json.Obj
    [ ("ok", Json.Bool true); ("rules", Json.Int (List.length t.rules)) ]

(* One selector/patch pair, under the [patch] message's names
   ([selector], [trampoline]) or the [tool] message's ([match],
   [patch]): the selector is read as a tool match, and the patch word
   as a patch unless a [trampoline] message registered it as a name. *)
let do_pair t params ~sel ~pat =
  let m = require sel (string_param params sel) in
  let p = require pat (string_param params pat) in
  let selector = Tool.parse_match m in
  let patch =
    match Hashtbl.find_opt t.trampolines p with
    | Some patch -> patch
    | None -> Patchspec.parse_patch p
  in
  add_rules t [ { Patchspec.selector; patch } ]

let do_patch t params =
  match (string_param params "spec", string_param params "selector") with
  | Some _, Some _ -> bad "spec and selector are exclusive"
  | Some src, None -> add_rules t (Patchspec.parse src)
  | None, Some _ -> do_pair t params ~sel:"selector" ~pat:"trampoline"
  | None, None -> bad "patch needs a spec or a selector/trampoline pair"

(* ------------------------------------------------------------------ *)
(* emit                                                                *)
(* ------------------------------------------------------------------ *)

let stats_json (s : Stats.t) =
  Json.Obj
    [ ("b0", Json.Int s.Stats.b0); ("b1", Json.Int s.Stats.b1);
      ("b2", Json.Int s.Stats.b2); ("t1", Json.Int s.Stats.t1);
      ("t2", Json.Int s.Stats.t2); ("t3", Json.Int s.Stats.t3);
      ("failed", Json.Int s.Stats.failed) ]

(* Rewrite what [Tool.rewrite_input] says the rules rewrite (the input
   plus the injected runtime when a rule keeps state in it), verify the
   output against that rewrite input (the injected pages are part of
   what the verifier must account for), cache. The rules are in the
   result key, so they also decide the injection for a hit. *)
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
  (* The wire's [disasm_from] is the one leading hole below it. *)
  let holes =
    match t.code_start with
    | None -> []
    | Some a -> [ Frontend.leading_hole elf a ]
  in
  let holes_tag =
    String.concat ","
      (List.map (fun (a, l) -> Printf.sprintf "%x+%x" a l) holes)
  in
  let okey = Rewriter.options_signature opts ^ ";holes=" ^ holes_tag in
  let key =
    Printf.sprintf "r:%s:%s:%s" bhash
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
        let rt = Tool.rewrite_input elf rules in
        let input = rt.Tool.augmented in
        (* One index per input text and holes: injecting the runtime
           appends pages and never touches the text, so the raw and the
           augmented input share it. *)
        let dkey = Printf.sprintf "d:%s:%s" bhash holes_tag in
        let index =
          match Cache.find t.ctx.decode_cache dkey with
          | Some idx -> idx
          | None ->
              let idx =
                Obs.span t.obs "rpc_decode" (fun () ->
                    Frontend.index ~holes input)
              in
              Cache.add t.ctx.decode_cache dkey idx;
              idx
        in
        let select, template = Tool.lower rt rules in
        let r =
          Obs.span t.obs "rpc_rewrite" (fun () ->
              Rewriter.run ~options:opts ~obs:t.obs ~holes
                ~frontend:(fun _ -> index) input ~select ~template)
        in
        (match
           Obs.span t.obs "rpc_verify" (fun () ->
               Static.verify ~index ~original:input r.Rewriter.output)
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
            size_pct = Tool.size_pct elf r;
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
  t.reserves <- [];
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
        | "tool" -> ok (do_pair t params ~sel:"match" ~pat:"patch")
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
