(* Tests for lib/rpc: golden JSON-RPC wire transcripts, the
   content-addressed cache, session conformance against one-shot
   [Rewriter.run], fault containment, socket-level concurrency stress and
   a session fuzzer. The golden tests pin exact response bytes — the wire
   format is a compatibility surface (DESIGN.md §13), so any change here
   must be deliberate. *)

module Json = E9_obs.Json
module Proto = E9_rpc.Proto
module Cache = E9_rpc.Cache
module Server = E9_rpc.Server
module Harness = E9_rpc.Harness
module Fault = E9_fault.Fault
module Codegen = E9_workload.Codegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures and helpers                                                *)
(* ------------------------------------------------------------------ *)

let mkraw seed =
  Elf_file.to_bytes
    (Codegen.generate
       { Codegen.default_profile with
         Codegen.name = Printf.sprintf "rpc-%d" seed;
         seed = Int64.of_int seed;
         functions = 6;
         iterations = 2 })

(* One binary for single-session tests; a trio for stress/fuzz. *)
let raw = lazy (mkraw 31)
let raws = lazy [| mkraw 41; mkraw 42; mkraw 43 |]

(* [one conn line] feeds a line that must produce exactly one response. *)
let one conn line =
  match Server.feed conn line with
  | [ r ], alive -> (r, alive)
  | rs, _ -> Alcotest.failf "expected one response line, got %d" (List.length rs)

let with_conn f =
  let server = Server.create () in
  let conn = Server.connect server in
  Fun.protect ~finally:(fun () -> Server.close_conn conn)
    (fun () -> f server conn)

let jparse line =
  match Json.of_string line with
  | Ok j -> j
  | Error m -> Alcotest.failf "unparsable response %S: %s" line m

let result_of line =
  match Json.member "result" (jparse line) with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" line

let field r k =
  match Json.member k r with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" k

let error_code line =
  match Json.member "error" (jparse line) with
  | Some err -> (
      match Json.member "code" err with
      | Some (Json.Int c) -> c
      | _ -> Alcotest.failf "error without int code in %s" line)
  | None -> Alcotest.failf "expected an error response, got %s" line

let emit_data line =
  match field (result_of line) "data" with
  | Json.Str hex -> hex
  | _ -> Alcotest.failf "emit data is not a string in %s" line

let mktempdir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rmtempdir dir =
  Array.iter
    (fun name ->
      try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Golden wire transcripts                                             *)
(* ------------------------------------------------------------------ *)

let test_golden_ping () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} in
  check_str "int id" {|{"jsonrpc":"2.0","id":1,"result":"pong"}|} r;
  check_bool "alive" true alive;
  let r, _ = one conn {|{"jsonrpc":"2.0","id":"c-9","method":"ping"}|} in
  check_str "string id" {|{"jsonrpc":"2.0","id":"c-9","result":"pong"}|} r;
  let r, _ = one conn {|{"jsonrpc":"2.0","id":null,"method":"ping"}|} in
  check_str "null id" {|{"jsonrpc":"2.0","id":null,"result":"pong"}|} r

let test_golden_notification () =
  with_conn @@ fun server conn ->
  (* No id = notification: no response, even when the method errors. *)
  let outs, alive = Server.feed conn {|{"jsonrpc":"2.0","method":"ping"}|} in
  check_int "silent" 0 (List.length outs);
  check_bool "alive" true alive;
  let outs, alive = Server.feed conn {|{"jsonrpc":"2.0","method":"zzz"}|} in
  check_int "error is silent too" 0 (List.length outs);
  check_bool "still alive" true alive;
  check_int "both counted" 2 (Server.requests server)

let test_golden_parse_error () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn "{nope" in
  check_str "pinned -32700"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"parse error: expected '\"' at 1, got 'n'"}}|}
    r;
  check_bool "parse error kills the session" false alive;
  let outs, alive = Server.feed conn {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} in
  check_int "dead conn is silent" 0 (List.length outs);
  check_bool "stays dead" false alive

let test_golden_invalid_request () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn "42" in
  check_str "non-object"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"request must be an object"}}|}
    r;
  check_bool "envelope errors do not kill" true alive;
  let r, _ = one conn {|{"jsonrpc":"2.0","id":1.5,"method":"ping"}|} in
  check_str "fractional id"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"id must be an integer, string or null"}}|}
    r;
  let r, _ = one conn {|{"id":1,"method":"ping"}|} in
  check_str "missing jsonrpc"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"missing jsonrpc: \"2.0\""}}|}
    r;
  let r, _ = one conn {|{"jsonrpc":"2.0","id":1,"method":"ping","params":[1]}|} in
  check_str "non-object params"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"params must be an object"}}|}
    r

let test_golden_method_not_found () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn {|{"jsonrpc":"2.0","id":2,"method":"frobnicate"}|} in
  check_str "pinned -32601"
    {|{"jsonrpc":"2.0","id":2,"error":{"code":-32601,"message":"method not found: frobnicate","data":{"kind":"method"}}}|}
    r;
  check_bool "alive" true alive

let test_golden_state_error () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn {|{"jsonrpc":"2.0","id":7,"method":"emit"}|} in
  check_str "pinned -32000"
    {|{"jsonrpc":"2.0","id":7,"error":{"code":-32000,"message":"emit needs a loaded binary","data":{"kind":"state"}}}|}
    r;
  check_bool "semantic errors do not kill" true alive

let test_golden_invalid_params () =
  with_conn @@ fun _ conn ->
  let r, _ = one conn {|{"jsonrpc":"2.0","id":4,"method":"binary"}|} in
  check_str "pinned -32602"
    {|{"jsonrpc":"2.0","id":4,"error":{"code":-32602,"message":"binary needs a filename or data param","data":{"kind":"params"}}}|}
    r

let test_golden_batch () =
  with_conn @@ fun _ conn ->
  let r, alive =
    one conn
      {|[{"jsonrpc":"2.0","id":1,"method":"ping"},{"jsonrpc":"2.0","id":2,"method":"nope"},{"jsonrpc":"2.0","method":"ping"}]|}
  in
  check_str "one array line, notification omitted"
    {|[{"jsonrpc":"2.0","id":1,"result":"pong"},{"jsonrpc":"2.0","id":2,"error":{"code":-32601,"message":"method not found: nope","data":{"kind":"method"}}}]|}
    r;
  check_bool "alive" true alive;
  let outs, alive =
    Server.feed conn
      {|[{"jsonrpc":"2.0","method":"ping"},{"jsonrpc":"2.0","method":"ping"}]|}
  in
  check_int "all-notification batch: no line at all" 0 (List.length outs);
  check_bool "alive" true alive

let test_golden_empty_batch () =
  with_conn @@ fun _ conn ->
  let r, alive = one conn "[]" in
  check_str "single error, not an empty array"
    {|{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"empty batch"}}|}
    r;
  check_bool "alive" true alive

let test_golden_hex_string_numbers () =
  with_conn @@ fun _ conn ->
  let r, _ =
    one conn
      {|{"jsonrpc":"2.0","id":4,"method":"reserve","params":{"address":"0x400000","length":"32"}}|}
  in
  check_str "hex-string ints accepted"
    {|{"jsonrpc":"2.0","id":4,"result":{"ok":true,"reserved":1}}|} r;
  let r, _ =
    one conn
      {|{"jsonrpc":"2.0","id":5,"method":"reserve","params":{"address":"zzz","length":1}}|}
  in
  check_str "junk string refused"
    {|{"jsonrpc":"2.0","id":5,"error":{"code":-32602,"message":"address must be an integer (or a decimal/0x-hex string)","data":{"kind":"params"}}}|}
    r

let test_golden_status () =
  with_conn @@ fun _ conn ->
  let zero =
    {|{"hits":0,"misses":0,"entries":0,"insertions":0,"evictions":0,"generation":0,"hit_rate":0}|}
  in
  let zero_bypassed =
    {|{"hits":0,"misses":0,"entries":0,"insertions":0,"evictions":0,"generation":0,"hit_rate":0,"bypassed":0}|}
  in
  let r, _ = one conn {|{"jsonrpc":"2.0","id":1,"method":"status"}|} in
  check_str "pinned status shape"
    (Printf.sprintf
       {|{"jsonrpc":"2.0","id":1,"result":{"sessions":{"started":1,"closed":0},"requests":1,"errors":0,"decode_cache":%s,"result_cache":%s}}|}
       zero_bypassed zero)
    r

let test_golden_shutdown () =
  with_conn @@ fun server conn ->
  let r, alive = one conn {|{"jsonrpc":"2.0","id":5,"method":"shutdown"}|} in
  check_str "pinned shutdown"
    {|{"jsonrpc":"2.0","id":5,"result":{"ok":true,"stopping":true}}|} r;
  check_bool "session closes" false alive;
  check_bool "daemon asked to stop" true (Server.stopping server)

let test_hex_roundtrip () =
  let all = Bytes.init 256 Char.chr in
  (match Proto.bytes_of_hex (Proto.hex_of_bytes all) with
  | Ok b -> check_bool "all bytes round-trip" true (Bytes.equal b all)
  | Error m -> Alcotest.failf "roundtrip refused: %s" m);
  check_str "empty" "" (Proto.hex_of_bytes Bytes.empty);
  (match Proto.bytes_of_hex "AB" with
  | Ok b -> check_int "uppercase accepted" 0xab (Char.code (Bytes.get b 0))
  | Error m -> Alcotest.failf "uppercase refused: %s" m);
  (match Proto.bytes_of_hex "abc" with
  | Error m -> check_str "odd length" "odd-length hex string" m
  | Ok _ -> Alcotest.fail "odd-length accepted");
  match Proto.bytes_of_hex "0g" with
  | Error m -> check_str "bad digit" "bad hex digit at 0" m
  | Ok _ -> Alcotest.fail "bad digit accepted"

let test_int_param_forms () =
  let params =
    Json.Obj
      [ ("i", Json.Int 7); ("hex", Json.Str "0x10"); ("dec", Json.Str "12");
        ("junk", Json.Str "nope"); ("b", Json.Bool true) ]
  in
  let get k = Proto.int_param params k in
  check_bool "plain int" true (get "i" = `Ok 7);
  check_bool "hex string" true (get "hex" = `Ok 16);
  check_bool "decimal string" true (get "dec" = `Ok 12);
  check_bool "junk string" true (get "junk" = `Bad);
  check_bool "bool" true (get "b" = `Bad);
  check_bool "absent" true (get "zz" = `Missing)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_fnv_vectors () =
  (* Published FNV-1a 64 vectors. *)
  check_str "empty" "cbf29ce484222325" (Cache.fnv1a64_string "");
  check_str "a" "af63dc4c8601ec8c" (Cache.fnv1a64_string "a");
  check_str "foobar" "85944171f73967e8" (Cache.fnv1a64_string "foobar");
  check_str "bytes agree" (Cache.fnv1a64_string "foobar")
    (Cache.fnv1a64 (Bytes.of_string "foobar"))

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check_bool "a hit" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  (* "b" was least recently used: the touch on "a" protected it. *)
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a survives" true (Cache.find c "a" = Some 1);
  check_bool "c present" true (Cache.find c "c" = Some 3);
  let s = Cache.stats c in
  check_int "hits" 3 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "entries" 2 s.Cache.entries;
  check_int "insertions" 3 s.Cache.insertions;
  check_int "evictions" 1 s.Cache.evictions

let test_cache_flush_generation () =
  let c = Cache.create () in
  Cache.add c "k" 1;
  check_bool "warm" true (Cache.find c "k" = Some 1);
  check_int "flush bumps generation" 1 (Cache.flush c);
  check_int "stale entries excluded" 0 (Cache.stats c).Cache.entries;
  (* Stale entry is dropped lazily and counted as a miss + eviction. *)
  check_bool "stale = miss" true (Cache.find c "k" = None);
  let s = Cache.stats c in
  check_int "lazy eviction counted" 1 s.Cache.evictions;
  Cache.add c "k" 2;
  check_bool "re-add lands in new generation" true (Cache.find c "k" = Some 2);
  check_int "generation sticks" 1 (Cache.stats c).Cache.generation

let test_cache_replace_and_rate () =
  let c = Cache.create () in
  Cache.add c "k" 1;
  Cache.add c "k" 2;
  let s = Cache.stats c in
  check_int "replace keeps one entry" 1 s.Cache.entries;
  check_int "both insertions counted" 2 s.Cache.insertions;
  check_bool "empty rate" true (Cache.hit_rate s = 0.0);
  check_bool "latest wins" true (Cache.find c "k" = Some 2);
  check_bool "one miss" true (Cache.find c "zz" = None);
  check_bool "rate 0.5" true (Cache.hit_rate (Cache.stats c) = 0.5)

(* LRU eviction interleaved with generation flushes under concurrent
   sessions: writer domains hammer a small cache (every add can evict)
   while the main domain flushes repeatedly (every entry goes stale at
   once, then gets dropped lazily). The accounting must stay exact and
   the structure must stay bounded and serviceable. *)
let test_cache_concurrent_flush_lru () =
  let capacity = 8 in
  let c = Cache.create ~capacity () in
  let writers = 4 and per = 400 and flushes = 6 in
  let finds_per_writer = 2 * per in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              let key = Printf.sprintf "w%d-%d" w i in
              Cache.add c key ((w * per) + i);
              (* Own key: hit unless a sibling evicted or a flush staled
                 it. Sibling key: usually a miss. Both paths race against
                 eviction and generation bumps. *)
              (match Cache.find c key with
              | Some v ->
                  if v <> (w * per) + i then
                    Alcotest.failf "w%d-%d read someone else's value" w i
              | None -> ());
              ignore (Cache.find c (Printf.sprintf "w%d-%d" ((w + 1) mod writers) i))
            done))
  in
  for _ = 1 to flushes do
    ignore (Cache.flush c);
    (* A beat of real work between flushes so writers make progress in
       every generation. *)
    for i = 1 to 100 do
      ignore (Cache.find c (Printf.sprintf "pace-%d" i))
    done
  done;
  List.iter Domain.join domains;
  let s = Cache.stats c in
  check_bool "entries bounded by capacity" true (s.Cache.entries <= capacity);
  check_int "generation counts flushes" flushes s.Cache.generation;
  check_int "every add counted" (writers * per) s.Cache.insertions;
  check_int "every find counted"
    ((writers * finds_per_writer) + (flushes * 100))
    (s.Cache.hits + s.Cache.misses);
  (* Whatever raced, the cache must still serve the current generation. *)
  Cache.add c "after" 1;
  check_bool "still serviceable" true (Cache.find c "after" = Some 1);
  check_bool "pre-flush keys are gone" true (Cache.find c "w0-1" = None);
  let s' = Cache.stats c in
  check_bool "evictions keep entries consistent" true
    (s'.Cache.entries <= capacity && s'.Cache.entries >= 1)

(* ------------------------------------------------------------------ *)
(* Session conformance                                                 *)
(* ------------------------------------------------------------------ *)

let test_conformance_transcript () =
  let raw = Lazy.force raw in
  let spec = "patch jumps with counter" in
  let expected = Proto.hex_of_bytes (Harness.reference ~spec raw) in
  let server = Server.create () in
  let rs, alive = Harness.run_session server (Harness.script ~spec raw) in
  check_bool "alive" true alive;
  check_int "three responses" 3 (List.length rs);
  let r1, r2, r3 =
    match rs with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let b = result_of r1 in
  check_bool "binary ok" true (field b "ok" = Json.Bool true);
  check_bool "size echoed" true (field b "size" = Json.Int (Bytes.length raw));
  check_bool "content hash" true (field b "hash" = Json.Str (Cache.fnv1a64 raw));
  check_bool "one rule" true (field (result_of r2) "rules" = Json.Int 1);
  let e = result_of r3 in
  check_bool "cold emit is a miss" true (field e "cache" = Json.Str "miss");
  check_bool "verified" true (field e "verified" = Json.Bool true);
  check_str "byte-identical to one-shot Rewriter.run" expected (emit_data r3)

let test_emit_resets_state () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let lines =
    Harness.script raw
    @ [ Harness.request ~id:9 "emit" [] ]
    @ Harness.script raw
  in
  let rs, alive = Harness.run_session server lines in
  check_bool "alive" true alive;
  check_int "seven responses" 7 (List.length rs);
  let r = Array.of_list rs in
  check_int "emit after emit: binary is gone" Proto.state_error
    (error_code r.(3));
  check_str "second round served" (emit_data r.(2)) (emit_data r.(6));
  check_bool "and from cache" true
    (field (result_of r.(6)) "cache" = Json.Str "hit")

let test_duplicate_binary () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let load = Harness.request ~id:1 "binary"
      [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
  in
  let rs, alive =
    Harness.run_session server
      ([ load; load ]
      @ [ Harness.request ~id:2 "patch" [ ("spec", Json.Str Harness.default_spec) ];
          Harness.request ~id:3 "emit" [ ("data", Json.Bool true) ] ])
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_int "second load refused" Proto.state_error (error_code r.(1));
  check_str "first load still serves"
    (Proto.hex_of_bytes (Harness.reference raw))
    (emit_data r.(3))

let test_cache_hit_identity () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs1, _ = Harness.run_session server (Harness.script raw) in
  let rs2, _ = Harness.run_session server (Harness.script raw) in
  let e1 = List.nth rs1 2 and e2 = List.nth rs2 2 in
  check_bool "first session misses" true
    (field (result_of e1) "cache" = Json.Str "miss");
  check_bool "second session hits" true
    (field (result_of e2) "cache" = Json.Str "hit");
  check_str "hit is byte-identical" (emit_data e1) (emit_data e2);
  let rc = Cache.stats (Server.ctx server).E9_rpc.Session.result_cache in
  check_int "one result hit" 1 rc.Cache.hits;
  check_int "one result miss" 1 rc.Cache.misses;
  (* The hit never reached the frontend: decode cache saw one miss only,
     and the short-circuit is accounted as a bypass, not a failure. *)
  let dc = Cache.stats (Server.ctx server).E9_rpc.Session.decode_cache in
  check_int "decode hits" 0 dc.Cache.hits;
  check_int "decode misses" 1 dc.Cache.misses;
  check_int "result hit counted as decode bypass" 1
    (Atomic.get (Server.ctx server).E9_rpc.Session.bypassed)

(* Injecting the runtime never touches the text, so a raw input and the
   same input augmented with the runtime share one decode-cache entry:
   the index of that text. A [lowfat] emit (which injects the runtime)
   after a [counter] emit (which does not) of one binary is a decode hit,
   and serves the bytes a one-shot rewrite writes. *)
let test_decode_shared_across_runtime () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let counter = "patch jumps with counter"
  and lowfat = "patch heap-writes with lowfat" in
  let rs1, _ = Harness.run_session server (Harness.script ~spec:counter raw) in
  let rs2, _ = Harness.run_session server (Harness.script ~spec:lowfat raw) in
  let e1 = List.nth rs1 2 and e2 = List.nth rs2 2 in
  check_bool "both verified" true
    (field (result_of e1) "verified" = Json.Bool true
    && field (result_of e2) "verified" = Json.Bool true);
  let dc = Cache.stats (Server.ctx server).E9_rpc.Session.decode_cache in
  check_int "decode hits" 1 dc.Cache.hits;
  check_int "decode misses" 1 dc.Cache.misses;
  check_str "counter emit = one-shot rewrite"
    (Proto.hex_of_bytes (Harness.reference ~spec:counter raw))
    (emit_data e1);
  check_str "lowfat emit from the cached index = one-shot rewrite"
    (Proto.hex_of_bytes (Harness.reference ~spec:lowfat raw))
    (emit_data e2)

let test_flush_forces_recompute () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs1, _ = Harness.run_session server (Harness.script raw) in
  let rs_flush, _ =
    Harness.run_session server [ Harness.request ~id:1 "flush" [] ]
  in
  check_bool "flush acks generation" true
    (field (result_of (List.hd rs_flush)) "generation" = Json.Int 1);
  let rs2, _ = Harness.run_session server (Harness.script raw) in
  let e1 = List.nth rs1 2 and e2 = List.nth rs2 2 in
  check_bool "flushed entry misses" true
    (field (result_of e2) "cache" = Json.Str "miss");
  check_str "recompute is still byte-identical" (emit_data e1) (emit_data e2)

let test_options_partition_cache () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let opted =
    [ Harness.request ~id:1 "options"
        [ ("t2", Json.Bool false); ("t3", Json.Bool false) ] ]
    @ Harness.script raw
  in
  let rs1, _ = Harness.run_session server opted in
  let rs2, _ = Harness.run_session server (Harness.script raw) in
  let rs3, _ = Harness.run_session server opted in
  let e1 = List.nth rs1 3
  and e2 = List.nth rs2 2
  and e3 = List.nth rs3 3 in
  check_bool "t1-only run misses" true
    (field (result_of e1) "cache" = Json.Str "miss");
  check_bool "default options are a distinct key" true
    (field (result_of e2) "cache" = Json.Str "miss");
  check_bool "same options hit" true
    (field (result_of e3) "cache" = Json.Str "hit");
  check_str "hit replays the t1-only bytes" (emit_data e1) (emit_data e3);
  check_bool "options actually changed the output" true
    (emit_data e1 <> emit_data e2);
  (* Unknown option keys are refused outright, not ignored. *)
  let rs, _ =
    Harness.run_session server
      [ Harness.request ~id:1 "options" [ ("t9", Json.Bool true) ] ]
  in
  check_int "unknown option" Proto.invalid_params (error_code (List.hd rs))

(* [options] with a removed [key]: refused as an unknown option, by
   name, and the session lives on. Returns the rest of [after]'s replies. *)
let check_removed_option ?(after = []) key value =
  let rs, alive =
    Harness.run_session (Server.create ())
      (Harness.request ~id:1 "options" [ (key, value) ] :: after)
  in
  check_bool "session alive" true alive;
  let line = List.hd rs in
  check_int (key ^ " option refused") Proto.invalid_params (error_code line);
  let message =
    Option.bind (Json.member "error" (jparse line)) (Json.member "message")
  in
  check_bool "named as an unknown option" true
    (message = Some (Json.Str ("unknown option " ^ key)));
  List.tl rs

(* Every emit rewrites the whole text as one S1 pass, so there is no
   shard size to set: the removed shard-span key is refused like any
   other unknown option. *)
let test_removed_span_option_refused () =
  ignore
    (check_removed_option (String.concat "_" [ "shard"; "span" ])
       (Json.Int 4096))

(* Decoding is one serial sweep, so there is no domain count to set:
   "jobs" is refused like any other unknown option, and status reports
   none. *)
let test_removed_jobs_option_refused () =
  match
    check_removed_option "jobs" (Json.Int 2)
      ~after:[ Harness.request ~id:2 "status" [] ]
  with
  | [ status ] ->
      check_bool "status has no jobs field" true
        (Json.member "jobs" (result_of status) = None)
  | _ -> Alcotest.fail "expected one status reply"

(* The "plan" option once selected a chunked rewrite with a plan cache.
   Clients may still send it: it is validated as a boolean and otherwise
   ignored, so a plan session emits exactly the bytes of the same session
   without it — for a loaded binary and for a delta revision — and the
   emit and status replies carry no plan fields. *)
let test_plan_option_ignored () =
  let raw =
    Elf_file.to_bytes
      (Codegen.generate
         { Codegen.default_profile with
           Codegen.name = "rpc-plan";
           seed = 51L;
           functions = 60;
           iterations = 2 })
  in
  let base_hash = Cache.fnv1a64 raw in
  (* A valid in-text edit: NOP-fill one decoded instruction of >= 2
     bytes, so the revision is still a clean sweep input. *)
  let text, sites = Frontend.disassemble (Elf_file.of_bytes raw) in
  let site = List.find (fun s -> s.Frontend.len >= 2) sites in
  let off = text.Frontend.offset + (site.Frontend.addr - text.Frontend.base) in
  let nops = String.concat "" (List.init site.Frontend.len (fun _ -> "90")) in
  let revision =
    let b = Bytes.copy raw in
    Bytes.fill b off site.Frontend.len '\x90';
    b
  in
  let plan_on = Harness.request ~id:1 "options" [ ("plan", Json.Bool true) ] in
  let patch_emit id =
    [ Harness.request ~id "patch" [ ("spec", Json.Str Harness.default_spec) ];
      Harness.request ~id:(id + 1) "emit" [ ("data", Json.Bool true) ] ]
  in
  let load bytes =
    Harness.request ~id:2 "binary" [ ("data", Json.Str (Proto.hex_of_bytes bytes)) ]
  in
  let delta =
    Harness.request ~id:2 "delta"
      [ ("base", Json.Str base_hash);
        ("edits",
         Json.List [ Json.Obj [ ("offset", Json.Int off); ("hex", Json.Str nops) ] ])
      ]
  in
  (* The emit reply of a session, from a fresh server unless given one. *)
  let emit ?(server = Server.create ()) requests =
    let rs, alive = Harness.run_session server (requests @ patch_emit 3) in
    check_bool "session alive" true alive;
    let e = List.nth rs (List.length requests + 1) in
    check_bool "emit verified" true (field (result_of e) "verified" = Json.Bool true);
    check_bool "emit has no plan object" true
      (Json.member "plan" (result_of e) = None);
    e
  in
  let server = Server.create () in
  let e1 = emit ~server [ plan_on; load raw ] in
  check_str "plan session emits the plain bytes" (emit_data (emit [ load raw ]))
    (emit_data e1);
  let e2 = emit ~server [ plan_on; delta ] in
  check_str "plan delta emits the plain revision's bytes"
    (emit_data (emit [ load revision ]))
    (emit_data e2);
  let rs, _ =
    Harness.run_session server
      [ Harness.request ~id:1 "options" [ ("plan", Json.Int 3) ];
        Harness.request ~id:2 "options" [ ("plan_cache", Json.Bool true) ];
        Harness.request ~id:3 "status" [] ]
  in
  check_int "non-boolean plan refused" Proto.invalid_params
    (error_code (List.nth rs 0));
  check_int "unknown option refused" Proto.invalid_params
    (error_code (List.nth rs 1));
  check_bool "status has no plan cache" true
    (Json.member "plan_cache" (result_of (List.nth rs 2)) = None)

let test_delta_errors () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  (* Base not retained: a typed state error, session lives. *)
  let rs, alive =
    Harness.run_session server
      [ Harness.request ~id:1 "delta"
          [ ("base", Json.Str "feedfacefeedface");
            ("edits", Json.List []) ] ]
  in
  check_bool "alive after unknown base" true alive;
  check_int "unknown base is a state error" Proto.state_error
    (error_code (List.hd rs));
  (* Out-of-range edit: invalid params, and the base stays loadable. *)
  let load =
    Harness.request ~id:1 "binary"
      [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
  in
  let rs, alive =
    Harness.run_session server
      [ load;
        Harness.request ~id:2 "emit" [];
        Harness.request ~id:3 "delta"
          [ ("base", Json.Str (Cache.fnv1a64 raw));
            ("edits",
             Json.List
               [ Json.Obj
                   [ ("offset", Json.Int (Bytes.length raw));
                     ("hex", Json.Str "90") ] ]) ] ]
  in
  check_bool "alive after bad edit" true alive;
  let r = Array.of_list rs in
  check_int "oversized edit refused" Proto.invalid_params (error_code r.(2))

let test_malformed_binary_recovers () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs, alive =
    Harness.run_session server
      ([ Harness.request ~id:1 "binary" [ ("data", Json.Str "00112233") ] ]
      @ Harness.script raw)
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_int "garbage refused typed" Proto.malformed_binary (error_code r.(0));
  check_str "session recovers and serves"
    (Proto.hex_of_bytes (Harness.reference raw))
    (emit_data r.(3))

let test_spec_parse_error_recovers () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs, alive =
    Harness.run_session server
      [ Harness.request ~id:1 "binary"
          [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
        Harness.request ~id:2 "patch"
          [ ("spec", Json.Str "frobnicate all the things") ];
        Harness.request ~id:3 "patch"
          [ ("spec", Json.Str Harness.default_spec) ];
        Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ] ]
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_int "bad spec typed" Proto.spec_error (error_code r.(1));
  check_str "good spec after bad one serves"
    (Proto.hex_of_bytes (Harness.reference raw))
    (emit_data r.(3))

let test_trampoline_alias () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs, _ =
    Harness.run_session server
      [ Harness.request ~id:1 "trampoline"
          [ ("name", Json.Str "mine"); ("template", Json.Str "counter") ];
        Harness.request ~id:2 "binary"
          [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
        Harness.request ~id:3 "patch"
          [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "mine") ];
        Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ];
        Harness.request ~id:5 "trampoline"
          [ ("name", Json.Str "bad"); ("template", Json.Str "zzz") ] ]
  in
  let r = Array.of_list rs in
  check_str "alias resolves to the counter template"
    (Proto.hex_of_bytes
       (Harness.reference ~spec:"patch jumps with counter" raw))
    (emit_data r.(3));
  check_int "unknown template refused" Proto.spec_error (error_code r.(4))

(* The selector of a {selector, trampoline} pair is one selector
   expression, never spliced into spec text: a selector carrying its own
   [with] clause and a second rule is refused, and the session goes on. *)
let test_selector_not_spliced () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs, alive =
    Harness.run_session server
      [ Harness.request ~id:1 "binary"
          [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
        Harness.request ~id:2 "patch"
          [ ("selector", Json.Str "jumps with lowfat; patch all");
            ("trampoline", Json.Str "empty") ];
        Harness.request ~id:3 "patch"
          [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "empty") ];
        Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ] ]
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_int "smuggled rule refused" Proto.spec_error (error_code r.(1));
  check_bool "only the clean pair was added" true
    (field (result_of r.(2)) "rules" = Json.Int 1);
  check_str "and it serves"
    (Proto.hex_of_bytes (Harness.reference raw))
    (emit_data r.(3))

(* A patch rule that keeps state in the runtime ([print], [call],
   [lowfat]) rewrites the input with the runtime injected, and the emit
   is verified against that augmented input before it leaves the
   daemon. *)
let test_runtime_patch_served () =
  let raw = Lazy.force raw in
  let spec = "patch jumps with print" in
  let rs, alive = Harness.run_session (Server.create ()) (Harness.script ~spec raw) in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_bool "verified" true (field (result_of r.(2)) "verified" = Json.Bool true);
  let out = emit_data r.(2) in
  check_str "the one-shot rewrite of the augmented input"
    (Proto.hex_of_bytes (Harness.reference ~spec raw)) out;
  let original = Elf_file.of_bytes raw in
  let rewritten =
    Elf_file.of_bytes (Result.get_ok (Proto.bytes_of_hex out))
  in
  let rt = E9_tool.Tool.runtime_in ~original rewritten in
  check_bool "emit carries the runtime" true (rt.E9_tool.Tool.pages <> None);
  (match E9_check.Static.verify ~original:rt.E9_tool.Tool.augmented rewritten with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "static verify: %a" E9_check.Static.pp_error e);
  (* A file whose header table is followed directly by content (a
     section right after room for two more program headers) cannot take
     the runtime's two: the emit is refused typed, and the session goes
     on. *)
  let cramped =
    let elf = Elf_file.of_bytes raw in
    let n = List.length elf.Elf_file.segments in
    elf.Elf_file.sections <-
      elf.Elf_file.sections
      @ [ { Elf_file.name = ".interp"; sh_type = 1; sh_flags = 2; addr = 0;
            offset = 64 + (56 * (n + 1)); size = 8 } ];
    Elf_file.to_bytes elf
  in
  let rs, alive =
    Harness.run_session (Server.create ())
      (Harness.script ~spec cramped @ [ Harness.request ~id:4 "ping" [] ])
  in
  check_bool "alive after the refusal" true alive;
  let r = Array.of_list rs in
  check_int "runtime refused typed" Proto.spec_error (error_code r.(2));
  check_bool "names the program headers" true
    (match Json.member "error" (jparse r.(2)) with
    | Some err -> (
        match Json.member "message" err with
        | Some (Json.Str m) ->
            String.starts_with ~prefix:"the instrumentation runtime's program headers" m
        | _ -> false)
    | None -> false);
  check_bool "ping answered" true (List.length rs = 4)

(* An emit that keeps the runtime reports Size% against the file the
   client sent, not the runtime-augmented copy it rewrote. *)
let test_runtime_emit_size_pct () =
  let raw = Lazy.force raw in
  let spec = "patch jumps with print" in
  let rs, _ = Harness.run_session (Server.create ()) (Harness.script ~spec raw) in
  let e = result_of (List.nth rs 2) in
  let out = Result.get_ok (Proto.bytes_of_hex (emit_data (List.nth rs 2))) in
  let augmented =
    (E9_tool.Tool.rewrite_input (Elf_file.of_bytes raw) (E9_spec.Patchspec.parse spec))
      .E9_tool.Tool.augmented
  in
  check_bool "the input was augmented" true
    (Elf_file.serialized_size augmented > Bytes.length raw);
  match field e "size_pct" with
  | Json.Float pct ->
      Alcotest.(check (float 0.01)) "size_pct = emitted / sent bytes"
        (100.0 *. float_of_int (Bytes.length out) /. float_of_int (Bytes.length raw))
        pct
  | _ -> Alcotest.fail "size_pct is not a float"

(* A rule set is one rewrite whichever door it comes in by: the CLI's
   --select/--template rule ([Tool.run], as [patch] rewrites it), the
   RPC spec, the RPC selector/trampoline pair and [Harness.reference]
   give identical bytes. *)
let test_front_doors_agree () =
  let raw = Lazy.force raw in
  let module Spec = E9_spec.Patchspec in
  List.iter
    (fun (selector, sel_src, patch, word) ->
      let name = Printf.sprintf "%s with %s" sel_src word in
      let spec = Printf.sprintf "patch %s with %s" sel_src word in
      let cli =
        let module Tool = E9_tool.Tool in
        Elf_file.to_bytes
          (Tool.run (Elf_file.of_bytes raw) [ { Spec.selector; patch } ])
            .Tool.rewrite.E9_core.Rewriter.output
      in
      let served params =
        let rs, _ =
          Harness.run_session (Server.create ())
            [ Harness.request ~id:1 "binary"
                [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
              Harness.request ~id:2 "patch" params;
              Harness.request ~id:3 "emit" [ ("data", Json.Bool true) ] ]
        in
        emit_data (List.nth rs 2)
      in
      let reference = Proto.hex_of_bytes (Harness.reference ~spec raw) in
      check_str (name ^ ": CLI rule") reference (Proto.hex_of_bytes cli);
      check_str (name ^ ": RPC spec") reference
        (served [ ("spec", Json.Str spec) ]);
      check_str (name ^ ": RPC selector/trampoline") reference
        (served
           [ ("selector", Json.Str sel_src); ("trampoline", Json.Str word) ]))
    [ (Spec.Jumps, "jumps", Spec.Count, "counter");
      (Spec.Heap_writes, "heap-writes", Spec.Lowfat, "lowfat");
      (Spec.Or (Spec.Jumps, Spec.Heap_writes), "jumps or heap-writes",
       Spec.Empty, "empty") ]

(* Every rule slot reads the same words: for each -M/-P pair, the
   daemon's [patch {selector, trampoline}] and [tool {match, patch}]
   hit the result-cache entry that a [patch {spec}] of
   [Tool.rule_of]'s fragment key filled (so the three rule lists have
   that fragment key), and all three emit [Tool.run]'s bytes. *)
let test_rule_slots_agree () =
  let raw = Lazy.force raw in
  let module Spec = E9_spec.Patchspec in
  let module Tool = E9_tool.Tool in
  let elf = Elf_file.of_bytes raw in
  let counter =
    List.assoc "counter" (Option.get (Tool.inject elf).Tool.pages).Tool.fns
  in
  let server = Server.create () in
  let emit (meth, params) =
    let rs, _ =
      Harness.run_session server
        [ Harness.request ~id:1 "binary"
            [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
          Harness.request ~id:2 meth params;
          Harness.request ~id:3 "emit" [ ("data", Json.Bool true) ] ]
    in
    let e = List.nth rs 2 in
    (field (result_of e) "cache", emit_data e)
  in
  List.iter
    (fun (m, p) ->
      let name = Printf.sprintf "-M %s -P %s" m p in
      let rule = Tool.rule_of ~m ~p () in
      let key = Spec.fragment_key [ rule ] in
      let expected =
        Proto.hex_of_bytes
          (Elf_file.to_bytes
             (Tool.run elf [ rule ]).Tool.rewrite.E9_core.Rewriter.output)
      in
      let spec_tag, spec_bytes = emit ("patch", [ ("spec", Json.Str key) ]) in
      check_bool (name ^ ": spec of the fragment key misses") true
        (spec_tag = Json.Str "miss");
      check_str (name ^ ": spec bytes") expected spec_bytes;
      List.iter
        (fun (meth, sel, pat) ->
          let tag, bytes =
            emit (meth, [ (sel, Json.Str m); (pat, Json.Str p) ])
          in
          check_bool (Printf.sprintf "%s: %s {%s, %s} has that key" name meth sel pat)
            true (tag = Json.Str "hit");
          check_str (Printf.sprintf "%s: %s bytes" name meth) expected bytes)
        [ ("patch", "selector", "trampoline"); ("tool", "match", "patch") ])
    [ ("jumps; size >= 5", "count");
      ("calls", "call:clean record(%rdi, addr, 3)");
      ("returns", "call:naked counter()");
      ("heap-writes", Printf.sprintf "call 0x%x(rsi)" counter);
      ("all", "empty") ];
  check_bool "a hex call target keeps its spelling in the key" true
    (let key =
       Spec.fragment_key
         [ Tool.rule_of ~m:"all" ~p:(Printf.sprintf "call 0x%x()" counter) () ]
     in
     String.ends_with ~suffix:(Printf.sprintf "0x%x()\n" counter) key)

let error_of line =
  match Json.member "error" (jparse line) with
  | Some err -> (
      match (Json.member "message" err, Json.member "data" err) with
      | Some (Json.Str m), Some data -> (m, Json.member "kind" data)
      | _ -> Alcotest.failf "error without message or kind in %s" line)
  | None -> Alcotest.failf "expected an error response, got %s" line

(* One error for a malformed rule word, wherever it is written: a spec,
   [-P], [-M], and the daemon's [trampoline], [patch] and [tool]
   messages all name the offending token's line and column, and the
   daemon answers -32004 of kind spec. *)
let test_rule_word_errors () =
  let module Spec = E9_spec.Patchspec in
  let module Tool = E9_tool.Tool in
  let at what (line, col) f =
    match f () with
    | exception Spec.Parse_error { line = l; col = c; _ } ->
        check_str what (Printf.sprintf "%d:%d" line col) (Printf.sprintf "%d:%d" l c)
    | _ -> Alcotest.failf "%s: expected Parse_error" what
  in
  at "spec" (1, 23) (fun () -> Spec.parse "patch jumps with call:warm f()");
  at "-P" (1, 6) (fun () -> Tool.rule_of ~m:"jumps" ~p:"call:warm f()" ());
  at "-M" (1, 8) (fun () -> Tool.rule_of ~m:"jumps; bogus" ~p:"count" ());
  at "-M, second line" (2, 3) (fun () ->
      Tool.rule_of ~m:"jumps;\n  bogus" ~p:"count" ());
  let raw = Lazy.force raw in
  let server = Server.create () in
  let rs, alive =
    Harness.run_session server
      [ Harness.request ~id:1 "binary"
          [ ("data", Json.Str (Proto.hex_of_bytes raw)) ];
        Harness.request ~id:2 "trampoline"
          [ ("name", Json.Str "t"); ("template", Json.Str "call:warm f()") ];
        Harness.request ~id:3 "patch"
          [ ("selector", Json.Str "jumps");
            ("trampoline", Json.Str "call:warm f()") ];
        Harness.request ~id:4 "tool"
          [ ("match", Json.Str "jumps"); ("patch", Json.Str "call:warm f()") ];
        Harness.request ~id:5 "patch"
          [ ("spec", Json.Str "patch jumps with call:warm f()") ];
        Harness.request ~id:6 "patch"
          [ ("selector", Json.Str "jumps; bogus");
            ("trampoline", Json.Str "count") ];
        Harness.request ~id:7 "tool"
          [ ("match", Json.Str "jumps; bogus"); ("patch", Json.Str "count") ];
        Harness.request ~id:8 "trampoline"
          [ ("name", Json.Str "t"); ("template", Json.Str "zzz") ];
        Harness.request ~id:9 "patch"
          [ ("selector", Json.Str "jumps"); ("trampoline", Json.Str "zzz") ];
        Harness.request ~id:10 "tool"
          [ ("match", Json.Str "jumps"); ("patch", Json.Str "zzz") ];
        Harness.request ~id:11 "patch"
          [ ("selector", Json.Str "jumps; size >= 5");
            ("trampoline", Json.Str "count") ] ]
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  List.iter
    (fun (i, pos) ->
      let what = Printf.sprintf "request %d" (i + 1) in
      check_int (what ^ " code") Proto.spec_error (error_code r.(i));
      let m, kind = error_of r.(i) in
      check_bool (what ^ " kind") true (kind = Some (Json.Str "spec"));
      check_bool (Printf.sprintf "%s names %s in %S" what pos m) true
        (String.starts_with ~prefix:(pos ^ ": ") m))
    [ (1, "1:6"); (2, "1:6"); (3, "1:6"); (4, "1:23"); (5, "1:8"); (6, "1:8");
      (7, "1:1"); (8, "1:1"); (9, "1:1") ];
  check_bool "zzz: one answer in trampoline, patch and tool" true
    (error_of r.(7) = error_of r.(8) && error_of r.(8) = error_of r.(9));
  check_bool "a ;-separated selector is accepted" true
    (field (result_of r.(10)) "rules" = Json.Int 1)

(* The tool vocabulary (DESIGN.md §15) over the wire: -M/-P pairs ride
   the [tool] method into the one rule list, a call rule gets the
   injected runtime, and the result is verified against the augmented
   input before it leaves the daemon. *)
let test_tool_session () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let load id =
    Harness.request ~id "binary" [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
  in
  let tool id m p =
    Harness.request ~id "tool" [ ("match", Json.Str m); ("patch", Json.Str p) ]
  in
  let script =
    [ load 1;
      tool 2 "jumps" "count";
      tool 3 "all" "call:clean record(addr,size,3)";
      Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ] ]
  in
  let rs, alive = Harness.run_session server script in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_bool "first rule" true (field (result_of r.(1)) "rules" = Json.Int 1);
  check_bool "second rule" true (field (result_of r.(2)) "rules" = Json.Int 2);
  let e = result_of r.(3) in
  check_bool "cold emit misses" true (field e "cache" = Json.Str "miss");
  check_bool "emit verified against the augmented input" true
    (field e "verified" = Json.Bool true);
  (* Same session again: the tool cache key covers the rules, so the
     replay is a hit and byte-identical. *)
  let rs2, _ = Harness.run_session server script in
  let e2 = List.nth rs2 3 in
  check_bool "identical session hits" true
    (field (result_of e2) "cache" = Json.Str "hit");
  check_str "hit is byte-identical" (emit_data r.(3)) (emit_data e2);
  (* Different rules must not collide with the cached entry. *)
  let rs3, _ =
    Harness.run_session server
      [ load 1; tool 2 "jumps" "trap";
        Harness.request ~id:3 "emit" [ ("data", Json.Bool true) ] ]
  in
  let e3 = List.nth rs3 2 in
  check_bool "different rules miss" true
    (field (result_of e3) "cache" = Json.Str "miss");
  check_bool "and produce different bytes" true
    (emit_data e3 <> emit_data r.(3))

let test_tool_errors () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let load id =
    Harness.request ~id "binary" [ ("data", Json.Str (Proto.hex_of_bytes raw)) ]
  in
  (* Bad -M / -P arguments are typed spec errors; the session lives. *)
  let rs, alive =
    Harness.run_session server
      [ load 1;
        Harness.request ~id:2 "tool"
          [ ("match", Json.Str "jumps"); ("patch", Json.Str "frobnicate") ];
        Harness.request ~id:3 "tool" [ ("match", Json.Str "jumps") ];
        Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ] ]
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_int "unknown patch builtin typed" Proto.spec_error (error_code r.(1));
  check_int "missing patch param" Proto.invalid_params (error_code r.(2));
  (* A tool rule and a patch spec share one emit: the rules of both
     vocabularies in arrival order, rewritten as the one-shot reference
     for the combined rules is (the lowfat rule brings the runtime). *)
  let rs, alive =
    Harness.run_session server
      [ load 1;
        Harness.request ~id:2 "tool"
          [ ("match", Json.Str "jumps"); ("patch", Json.Str "count") ];
        Harness.request ~id:3 "patch"
          [ ("spec", Json.Str "patch heap-writes with lowfat") ];
        Harness.request ~id:4 "emit" [ ("data", Json.Bool true) ] ]
  in
  check_bool "alive" true alive;
  let r = Array.of_list rs in
  check_bool "both rules accepted" true
    (field (result_of r.(2)) "rules" = Json.Int 2);
  check_bool "mixed emit verifies" true
    (field (result_of r.(3)) "verified" = Json.Bool true);
  check_str "mixed emit is the one-shot rewrite of the combined rules"
    (Proto.hex_of_bytes
       (Harness.reference
          ~spec:"patch jumps with count; patch heap-writes with lowfat" raw))
    (emit_data r.(3))

let test_batch_full_session () =
  let raw = Lazy.force raw in
  let server = Server.create () in
  let batch =
    Printf.sprintf "[%s]" (String.concat "," (Harness.script raw))
  in
  let rs, alive = Harness.run_session server [ batch ] in
  check_bool "alive" true alive;
  check_int "one line back" 1 (List.length rs);
  match jparse (List.hd rs) with
  | Json.List [ _; _; emit ] ->
      let e =
        match Json.member "result" emit with
        | Some r -> r
        | None -> Alcotest.fail "batched emit errored"
      in
      check_bool "verified" true (field e "verified" = Json.Bool true);
      check_bool "identical" true
        (field e "data"
        = Json.Str (Proto.hex_of_bytes (Harness.reference raw)))
  | j -> Alcotest.failf "expected a 3-element array, got %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Fault containment                                                   *)
(* ------------------------------------------------------------------ *)

let test_fault_decode_kills_session_only () =
  let server = Server.create ~fault:(Fault.create (Fault.parse "rpcdecode@0")) () in
  let rs, alive =
    Harness.run_session server [ {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} ]
  in
  check_int "one injected response" 1 (List.length rs);
  check_int "typed -32006" Proto.injected_fault (error_code (List.hd rs));
  check_bool "session killed" false alive;
  let rs, alive =
    Harness.run_session server [ {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} ]
  in
  check_bool "sibling session unaffected" true alive;
  check_str "and served" {|{"jsonrpc":"2.0","id":1,"result":"pong"}|}
    (List.hd rs);
  let started, closed = Server.sessions server in
  check_int "books balance" started closed

let test_fault_emit_no_partial_file () =
  let raw = Lazy.force raw in
  let dir = mktempdir "e9rpc-test-emitfault" in
  Fun.protect ~finally:(fun () -> rmtempdir dir) @@ fun () ->
  let out = Filename.concat dir "out.elf" in
  let server = Server.create ~fault:(Fault.create (Fault.parse "rpcemit@0")) () in
  let rs, alive =
    Harness.run_session server (Harness.script ~filename:out raw)
  in
  let r = Array.of_list rs in
  check_int "emit answered typed" Proto.injected_fault (error_code r.(2));
  check_bool "session killed" false alive;
  check_bool "no output file" false (Sys.file_exists out);
  check_bool "no temp droppings" true
    (Array.for_all
       (fun n -> not (Filename.check_suffix n ".tmp"))
       (Sys.readdir dir));
  (* Occurrence 0 is spent: the next session emits for real. *)
  let rs, alive =
    Harness.run_session server (Harness.script ~filename:out raw)
  in
  check_bool "next session alive" true alive;
  check_bool "emit ok" true
    (field (result_of (List.nth rs 2)) "ok" = Json.Bool true);
  check_str "file matches the one-shot rewrite"
    (Bytes.to_string (Harness.reference raw))
    (read_file out)

let test_fault_read_drops_silently () =
  let server = Server.create ~fault:(Fault.create (Fault.parse "rpcread@0")) () in
  let rs, alive =
    Harness.run_session server [ {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} ]
  in
  check_int "read loss: no response" 0 (List.length rs);
  check_bool "session dropped" false alive;
  let _, alive =
    Harness.run_session server [ {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} ]
  in
  check_bool "daemon survives" true alive

let test_fault_accept_gate () =
  let server = Server.create ~fault:(Fault.create (Fault.parse "rpcaccept@0")) () in
  check_bool "first accept refused" false (Server.accept_gate server);
  check_bool "second accept admitted" true (Server.accept_gate server);
  let rs, _ =
    Harness.run_session server [ {|{"jsonrpc":"2.0","id":1,"method":"ping"}|} ]
  in
  (* run_session consults the gate itself; the occurrence above already
     spent the rule so this session was admitted. *)
  check_int "admitted session answers" 1 (List.length rs)

let test_fault_campaign () =
  let s = Harness.campaign ~n:8 ~seed:5 () in
  List.iter
    (fun (case, why) -> Printf.printf "  violation %s: %s\n%!" case why)
    s.Harness.failures;
  check_int "no contract violations" 0 (List.length s.Harness.failures);
  check_int "all cases ran" 8 s.Harness.cases;
  check_int "every session classified" 24
    (s.Harness.served + s.Harness.dropped + s.Harness.typed)

(* ------------------------------------------------------------------ *)
(* Socket concurrency stress                                           *)
(* ------------------------------------------------------------------ *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let rec connect_retry path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      connect_retry path (tries - 1)

(* One scripted client session over the socket: write the three request
   lines, read the three response lines, close. *)
let socket_session ~path ~dir ~raws idx =
  let b = idx mod Array.length raws in
  let out = Filename.concat dir (Printf.sprintf "out-%d.elf" idx) in
  let fd = connect_retry path 250 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (Harness.script ~filename:out raws.(b));
      flush oc;
      let r1 = input_line ic in
      let r2 = input_line ic in
      let r3 = input_line ic in
      [ r1; r2; r3 ])

let test_socket_stress () =
  let raws = Lazy.force raws in
  let expected = Array.map (fun r -> Proto.hex_of_bytes (Harness.reference r)) raws in
  let dir = mktempdir "e9rpc-test-stress" in
  Fun.protect ~finally:(fun () -> rmtempdir dir) @@ fun () ->
  let fds_before = count_fds () in
  let server = Server.create () in
  let path = Filename.concat dir "rpc.sock" in
  let n_sessions = 12 in
  let srv =
    Domain.spawn (fun () ->
        Server.serve_unix server ~path ~domains:4 ~max_sessions:n_sessions ())
  in
  (* 4 client domains × 3 sessions each, striped over 3 binaries. *)
  let clients =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init 3 (fun k ->
                let idx = d + (4 * k) in
                (idx, socket_session ~path ~dir ~raws idx))))
  in
  let sessions = List.concat_map Domain.join clients in
  Domain.join srv;
  List.iter
    (fun (idx, rs) ->
      let e = result_of (List.nth rs 2) in
      check_bool
        (Printf.sprintf "session %d verified" idx)
        true
        (field e "verified" = Json.Bool true);
      check_str
        (Printf.sprintf "session %d bytes (no cross-session bleed)" idx)
        expected.(idx mod 3)
        (emit_data (List.nth rs 2));
      let file = Filename.concat dir (Printf.sprintf "out-%d.elf" idx) in
      check_str
        (Printf.sprintf "session %d file" idx)
        expected.(idx mod 3)
        (Proto.hex_of_bytes (Bytes.unsafe_of_string (read_file file))))
    sessions;
  let started, closed = Server.sessions server in
  check_int "all sessions started" n_sessions started;
  check_int "clean shutdown closes every session" n_sessions closed;
  check_bool "socket unlinked" false (Sys.file_exists path);
  let rc = Cache.stats (Server.ctx server).E9_rpc.Session.result_cache in
  check_bool "shared cache saw hits" true (rc.Cache.hits > 0);
  check_bool "no temp droppings" true
    (Array.for_all
       (fun n -> not (Filename.check_suffix n ".tmp"))
       (Sys.readdir dir));
  check_int "no leaked fds" fds_before (count_fds ())

(* ------------------------------------------------------------------ *)
(* Session fuzz                                                        *)
(* ------------------------------------------------------------------ *)

(* Benign noise a client can inject anywhere in a scripted session: each
   kind draws exactly one typed error response and must leave the session
   alive and the eventual emit byte-identical to the one-shot rewrite. *)
type noise = Early_emit | Unknown of int | Bad_reserve of int | Dup_binary

type sdesc = { bin : int; sp : int; noises : noise list }

let fuzz_specs = [| "patch jumps with empty"; "patch jumps with counter" |]

let gen_sdesc =
  let open QCheck2.Gen in
  let gen_noise =
    oneof
      [ return Early_emit;
        map (fun p -> Unknown p) (int_bound 3);
        map (fun p -> Bad_reserve p) (int_bound 3);
        return Dup_binary ]
  in
  let* bin = int_bound 2 in
  let* sp = int_bound 1 in
  let* noises = list_size (int_bound 2) gen_noise in
  return { bin; sp; noises }

let gen_fuzz_case = QCheck2.Gen.(list_size (int_range 1 3) gen_sdesc)

let print_sdesc d =
  Printf.sprintf "{bin=%d; spec=%d; noise=[%s]}" d.bin d.sp
    (String.concat ";"
       (List.map
          (function
            | Early_emit -> "early-emit"
            | Unknown p -> Printf.sprintf "unknown@%d" p
            | Bad_reserve p -> Printf.sprintf "bad-reserve@%d" p
            | Dup_binary -> "dup-binary")
          d.noises))

(* Weave noise lines into the 3-line core script. Returns the lines and
   the ids of the noise requests (each must answer with an error). *)
let fuzz_lines raws d =
  let core = Array.of_list (Harness.script ~spec:fuzz_specs.(d.sp) raws.(d.bin)) in
  let noise_at i n =
    let id = 80 + i in
    let line =
      match n with
      | Early_emit -> (0, Harness.request ~id "emit" [])
      | Unknown p -> (p, Harness.request ~id "frobnicate" [])
      | Bad_reserve p -> (p, Harness.request ~id "reserve" [])
      | Dup_binary ->
          ( 1,
            Harness.request ~id "binary"
              [ ("data", Json.Str (Proto.hex_of_bytes raws.(d.bin))) ] )
    in
    (id, line)
  in
  let tagged = List.mapi noise_at d.noises in
  let ids = List.map fst tagged in
  let inserts = List.map snd tagged in
  let lines = ref [] in
  for pos = Array.length core downto 0 do
    if pos < Array.length core then lines := core.(pos) :: !lines;
    List.iter
      (fun (p, l) -> if p = pos then lines := l :: !lines)
      (List.rev inserts)
  done;
  (!lines, ids)

let fuzz_expected = lazy (
  let raws = Lazy.force raws in
  Array.init (Array.length raws) (fun b ->
      Array.map
        (fun spec -> Proto.hex_of_bytes (Harness.reference ~spec raws.(b)))
        fuzz_specs))

let prop_session_fuzz =
  QCheck2.Test.make ~count:15 ~name:"interleaved noisy sessions stay conformant"
    ~print:(fun descs -> String.concat " " (List.map print_sdesc descs))
    gen_fuzz_case
    (fun descs ->
      let raws = Lazy.force raws in
      let expected = Lazy.force fuzz_expected in
      let server = Server.create () in
      let scripts =
        Array.of_list (List.map (fun d -> fuzz_lines raws d) descs)
      in
      let conns = Array.map (fun _ -> Server.connect server) scripts in
      let ptr = Array.make (Array.length scripts) 0 in
      let resp = Array.make (Array.length scripts) [] in
      let alive = Array.make (Array.length scripts) true in
      (* Round-robin one line per session: sessions interleave on the
         shared server and caches, as concurrent clients would. *)
      let progressed = ref true in
      while !progressed do
        progressed := false;
        Array.iteri
          (fun i (lines, _) ->
            let arr = Array.of_list lines in
            if ptr.(i) < Array.length arr then begin
              progressed := true;
              let outs, ok = Server.feed conns.(i) arr.(ptr.(i)) in
              resp.(i) <- resp.(i) @ outs;
              alive.(i) <- ok;
              ptr.(i) <- ptr.(i) + 1
            end)
          scripts
      done;
      Array.iter Server.close_conn conns;
      let ok = ref true in
      Array.iteri
        (fun i (_, noise_ids) ->
          let d = List.nth descs i in
          if not alive.(i) then ok := false;
          let err_ids =
            List.filter_map
              (fun line ->
                let j = jparse line in
                match (Json.member "error" j, Json.member "id" j) with
                | Some _, Some (Json.Int id) -> Some id
                | _ -> None)
              resp.(i)
          in
          (* Every noise line errored, and nothing else did. *)
          if List.sort compare err_ids <> List.sort compare noise_ids then
            ok := false;
          let emit =
            List.find_opt
              (fun line ->
                Json.member "id" (jparse line) = Some (Json.Int 3)
                && Json.member "result" (jparse line) <> None)
              resp.(i)
          in
          match emit with
          | None -> ok := false
          | Some line ->
              if emit_data line <> expected.(d.bin).(d.sp) then ok := false)
        scripts;
      let started, closed = Server.sessions server in
      !ok && started = closed)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "rpc.proto",
      [
        Alcotest.test_case "golden: ping ids" `Quick test_golden_ping;
        Alcotest.test_case "golden: notifications" `Quick
          test_golden_notification;
        Alcotest.test_case "golden: parse error" `Quick test_golden_parse_error;
        Alcotest.test_case "golden: invalid request" `Quick
          test_golden_invalid_request;
        Alcotest.test_case "golden: method not found" `Quick
          test_golden_method_not_found;
        Alcotest.test_case "golden: state error" `Quick test_golden_state_error;
        Alcotest.test_case "golden: invalid params" `Quick
          test_golden_invalid_params;
        Alcotest.test_case "golden: batch" `Quick test_golden_batch;
        Alcotest.test_case "golden: empty batch" `Quick test_golden_empty_batch;
        Alcotest.test_case "golden: hex-string numbers" `Quick
          test_golden_hex_string_numbers;
        Alcotest.test_case "golden: status" `Quick test_golden_status;
        Alcotest.test_case "golden: shutdown" `Quick test_golden_shutdown;
        Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
        Alcotest.test_case "int param forms" `Quick test_int_param_forms;
      ] );
    ( "rpc.cache",
      [
        Alcotest.test_case "fnv-1a vectors" `Quick test_fnv_vectors;
        Alcotest.test_case "lru eviction" `Quick test_cache_lru;
        Alcotest.test_case "flush = lazy generation invalidation" `Quick
          test_cache_flush_generation;
        Alcotest.test_case "replace and hit rate" `Quick
          test_cache_replace_and_rate;
        Alcotest.test_case "concurrent eviction x generation flush" `Quick
          test_cache_concurrent_flush_lru;
      ] );
    ( "rpc.session",
      [
        Alcotest.test_case "conformance transcript" `Quick
          test_conformance_transcript;
        Alcotest.test_case "emit resets per-binary state" `Quick
          test_emit_resets_state;
        Alcotest.test_case "duplicate binary refused" `Quick
          test_duplicate_binary;
        Alcotest.test_case "cache hit is byte-identical" `Quick
          test_cache_hit_identity;
        Alcotest.test_case "decode shared across the runtime" `Quick
          test_decode_shared_across_runtime;
        Alcotest.test_case "flush forces recompute" `Quick
          test_flush_forces_recompute;
        Alcotest.test_case "options partition the cache" `Quick
          test_options_partition_cache;
        Alcotest.test_case "shard-span option refused" `Quick
          test_removed_span_option_refused;
        Alcotest.test_case "jobs option refused" `Quick
          test_removed_jobs_option_refused;
        Alcotest.test_case "plan option ignored: emit + delta" `Quick
          test_plan_option_ignored;
        Alcotest.test_case "delta error paths" `Quick test_delta_errors;
        Alcotest.test_case "malformed binary recovers" `Quick
          test_malformed_binary_recovers;
        Alcotest.test_case "spec parse error recovers" `Quick
          test_spec_parse_error_recovers;
        Alcotest.test_case "trampoline aliases" `Quick test_trampoline_alias;
        Alcotest.test_case "selector is not spliced into a spec" `Quick
          test_selector_not_spliced;
        Alcotest.test_case "runtime patches served in specs" `Quick
          test_runtime_patch_served;
        Alcotest.test_case "front doors agree on bytes" `Quick
          test_front_doors_agree;
        Alcotest.test_case "rule slots agree: key and bytes" `Quick
          test_rule_slots_agree;
        Alcotest.test_case "rule word errors: one position, one code" `Quick
          test_rule_word_errors;
        Alcotest.test_case "tool vocabulary round-trip" `Quick
          test_tool_session;
        Alcotest.test_case "tool error paths + exclusivity" `Quick
          test_tool_errors;
        Alcotest.test_case "runtime emit: size_pct against the sent file"
          `Quick test_runtime_emit_size_pct;
        Alcotest.test_case "batched full session" `Quick test_batch_full_session;
      ] );
    ( "rpc.fault",
      [
        Alcotest.test_case "decode fault kills session only" `Quick
          test_fault_decode_kills_session_only;
        Alcotest.test_case "emit fault leaves no partial file" `Quick
          test_fault_emit_no_partial_file;
        Alcotest.test_case "read fault drops silently" `Quick
          test_fault_read_drops_silently;
        Alcotest.test_case "accept gate" `Quick test_fault_accept_gate;
        Alcotest.test_case "campaign: three permitted outcomes" `Slow
          test_fault_campaign;
      ] );
    ( "rpc.stress",
      [ Alcotest.test_case "socket: 4 domains x 3 sessions" `Slow
          test_socket_stress ] );
    ( "rpc.fuzz", [ QCheck_alcotest.to_alcotest prop_session_fuzz ] );
  ]
