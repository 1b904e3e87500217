(* serve-mix: the daemon under an assumed traffic mix. No daemon log or
   session trace exists to measure one from, so the mix combines the two
   daemon benchmarks of bench/main.ml and labels the rest as assumed:

   - fresh, then repeat twice: an unseen binary of 60 functions patched
     with counters (a cold decode, rewrite and verify), later re-sent
     twice (result-cache hits). This is `bench serve`: every binary sent
     three times.
   - revise: a NOP edit of about 1% of the text, one contiguous run, of
     one of the client's two working binaries, shipped as a delta against
     the client's last revision with chunk plans on, so unchanged chunks
     replay from the plan tier. This is `bench incremental`'s revision.
   - respec: each fresh binary once more under another spec, a
     decode-cache hit followed by a rewrite. Assumed: no existing
     benchmark sends one.

   Per client and pass: 6 fresh, 12 repeats, 6 respecs and 16 revisions,
   in an order drawn from the seed. The respec and revise counts, and the
   working binaries' 120 functions, are assumptions, not measurements. A
   closed loop: two client domains (one per core of the reference box)
   share one in-process server, and each sends its next request only when
   the last one is answered. One pass runs on a freshly started server
   whose set-up emitted each client's working binaries once.

   Every emit returns its bytes. The same rewrite layers run as replay
   (revise) and as search (fresh), and cache hits sit beside misses, so a
   gain for one kind of use that costs another shows here. A session is
   one rewrite job: its latency is the time the server took to answer
   all of its requests; failures count per request. *)

open Call
module Server = E9_rpc.Server
module Session = E9_rpc.Session
module Cache = E9_rpc.Cache
module Proto = E9_rpc.Proto
module Harness = E9_rpc.Harness
module Json = E9_obs.Json
module Obs = E9_obs.Obs
module Rng = E9_bits.Rng

let clients = 2
let fresh_binaries = 6
let revisions = 16

(* Each fresh binary is sent fresh, repeated twice and re-specced once. *)
let sessions_per_client = (4 * fresh_binaries) + revisions
let jumps = "patch jumps with counter"
let writes = "patch heap-writes with empty"

(* Roomy enough that nothing a pass loads is evicted: a repeat is a hit
   and a delta base is retained by construction, never by luck. *)
let cache_capacity = 256

(* Served emits re-done on a cold server after the loop. *)
let replays = 40

type emit = { input : bytes; spec : string; plan : bool; revision : bool }

type session = {
  requests : (string * string) list;  (** method, wire line *)
  emit : emit;
  repeat : bool;  (** re-sends an earlier session's emit *)
}

let req id meth params = (meth, Harness.request ~id meth params)
let plan_on id = req id "options" [ ("plan", Json.Bool true) ]

let patch_emit id spec =
  [ req id "patch" [ ("spec", Json.Str spec) ];
    req (id + 1) "emit" [ ("data", Json.Bool true) ] ]

(* A session that loads [e.input] whole. *)
let load e =
  let opts = if e.plan then [ plan_on 1 ] else [] in
  { requests =
      opts
      @ [ req 2 "binary" [ ("data", Json.Str (Proto.hex_of_bytes e.input)) ] ]
      @ patch_emit 3 e.spec;
    emit = e;
    repeat = false }

type client = { working : emit list; sessions : session array }

(* A ~1% edit: NOP-fill a run of whole instructions, so the revision is
   still a clean linear-sweep input. *)
let churn rng (text : Frontend.text) sites current =
  let n = Array.length sites in
  let i = Rng.int rng n in
  let rec span j len =
    if j >= n || len * 100 >= text.Frontend.size then len
    else span (j + 1) (len + sites.(j).Frontend.len)
  in
  let len = span i 0 in
  let off = text.Frontend.offset + (sites.(i).Frontend.addr - text.Frontend.base) in
  let next = Bytes.copy current in
  Bytes.fill next off len '\x90';
  let hex = String.concat "" (List.init len (fun _ -> "90")) in
  (Json.Obj [ ("offset", Json.Int off); ("hex", Json.Str hex) ], next)

type kind = Fresh of int | Repeat of int | Respec of int | Revise

(* The pass's sessions in seeded order: each fresh binary's four sessions
   land at random places among the revisions, the first of them being the
   one that sends it fresh. *)
let kinds rng =
  let a =
    Array.append
      (Array.concat (List.init fresh_binaries (fun k -> Array.make 4 (Some k))))
      (Array.make revisions None)
  in
  Rng.shuffle rng a;
  let later =
    Array.init fresh_binaries (fun k ->
        let l = [| Repeat k; Repeat k; Respec k |] in
        Rng.shuffle rng l;
        l)
  in
  let seen = Array.make fresh_binaries 0 in
  Array.map
    (function
      | None -> Revise
      | Some k ->
          let i = seen.(k) in
          seen.(k) <- i + 1;
          if i = 0 then Fresh k else later.(k).(i - 1))
    a

let make_client ~seed ~index =
  let rng = Rng.create (Int64.of_int ((seed * 7_919) + index)) in
  let salt = 400 + (100 * index) in
  let working =
    List.init 2 (fun k ->
        { input = generate_file ~seed ~salt:(salt + k) ~functions:120 ~iterations:2;
          spec = jumps; plan = true; revision = false })
  in
  let decoded =
    Array.of_list
      (List.map
         (fun w ->
           let text, sites = Frontend.disassemble (Elf_file.of_bytes w.input) in
           (text, Array.of_list sites))
         working)
  in
  let revision = Array.of_list (List.map (fun w -> w.input) working) in
  (* As `bench serve` builds its binaries. *)
  let fresh =
    Array.init fresh_binaries (fun k ->
        { input = generate_file ~seed ~salt:(salt + 10 + k) ~functions:60 ~iterations:2;
          spec = jumps; plan = false; revision = false })
  in
  let next_w = ref 0 in
  let session = function
    | Fresh k -> load fresh.(k)
    | Repeat k -> { (load fresh.(k)) with repeat = true }
    | Respec k -> load { (fresh.(k)) with spec = writes }
    | Revise ->
        let k = !next_w in
        next_w := 1 - k;
        let text, sites = decoded.(k) in
        let edit, next = churn rng text sites revision.(k) in
        let base = Cache.fnv1a64 revision.(k) in
        revision.(k) <- next;
        { requests =
            [ plan_on 1;
              req 2 "delta" [ ("base", Json.Str base); ("edits", Json.List [ edit ]) ] ]
            @ patch_emit 3 jumps;
          emit = { input = next; spec = jumps; plan = true; revision = true };
          repeat = false }
  in
  { working; sessions = Array.map session (kinds rng) }

(* {1 Responses} *)

type reply = {
  error : string option;
  result : Json.t;  (** the result object, without its [data] *)
  data : string;  (** an emit's hex payload, "" otherwise *)
}

let find_sub s key =
  let n = String.length s and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = key then Some i
    else go (i + 1)
  in
  go 0

(* The emitted hex is cut out before parsing: the client needs its digest,
   not a JSON walk over a megabyte string. *)
let parse line =
  let key = "\"data\":\"" in
  let line, data =
    match find_sub line key with
    | None -> (line, "")
    | Some i ->
        let start = i + String.length key in
        let stop = String.index_from line start '"' in
        ( String.sub line 0 start ^ String.sub line stop (String.length line - stop),
          String.sub line start (stop - start) )
  in
  match Json.of_string line with
  | Error m -> { error = Some ("unparsable response: " ^ m); result = Json.Null; data }
  | Ok j -> (
      match (Json.member "error" j, Json.member "result" j) with
      | Some e, _ -> { error = Some (Json.to_string e); result = Json.Null; data }
      | None, Some r -> { error = None; result = r; data }
      | None, None -> { error = Some "response without result"; result = Json.Null; data })

let int_field j k = match Json.member k j with Some (Json.Int n) -> n | _ -> 0

(* Sites patched and sites selected, from an emit's [stats]. *)
let coverage r =
  match Json.member "stats" r with
  | Some s ->
      let patched =
        List.fold_left (fun acc k -> acc + int_field s k) 0
          [ "b0"; "b1"; "b2"; "t1"; "t2"; "t3" ]
      in
      (patched, patched + int_field s "failed")
  | None -> (0, 0)

(* {1 One pass} *)

type served = {
  digest : string;
  data : string;  (** kept only for the emits picked for replay *)
  size : int;  (** output file bytes *)
  patched : int;
  selected : int;
}

type state = {
  plan : client array;
  replay : (int * int) list;  (** (client, session) picked for replay *)
  first : served option array array;  (** pass 0's emits *)
  mutable pending : Server.t option;  (** warmed by set-up, not yet used *)
}

(* One session — one rewrite job — on its own connection. Returns its
   latency: the time the server took to answer its requests. *)
let run_session server s ~on_reply =
  let conn = Server.connect server in
  Fun.protect
    ~finally:(fun () -> Server.close_conn conn)
    (fun () ->
      Probe.op (fun () ->
          List.fold_left
            (fun total (meth, line) ->
              let t0 = Unix.gettimeofday () in
              let outs, _ = Probe.span "server.feed" (fun () -> Server.feed conn line) in
              let dt = Unix.gettimeofday () -. t0 in
              on_reply meth dt
                (match outs with
                | [ out ] -> parse out
                | _ -> { error = Some "no response"; result = Json.Null; data = "" });
              total +. dt)
            0.0 s.requests))

(* Set-up: a fresh server with every client's working binaries emitted
   once (this also fills the plan tier the revise sessions replay). Every
   pass after the first warms its own server outside the timed part. *)
let warm st =
  let server = Server.create ~cache_capacity () in
  Array.iter
    (fun c ->
      List.iter
        (fun e ->
          ignore
            (run_session server (load e) ~on_reply:(fun meth _ r ->
                 match r.error with
                 | Some m -> failwith (Printf.sprintf "set-up %s: %s" meth m)
                 | None -> ())))
        c.working)
    st.plan;
  server

let run_client st server ci =
  let lat = ref [] and fails = ref [] and att = ref 0 in
  Array.iteri
    (fun si s ->
      let latency =
        run_session server s ~on_reply:(fun meth dt r ->
          incr att;
          let fail m = fails := Printf.sprintf "client %d session %d %s: %s" ci si meth m :: !fails in
          match r.error with
          | Some m -> fail m
          | None when meth <> "emit" -> Probe.sample ("rpc." ^ meth) dt
          | None ->
              let hit = Json.member "cache" r.result = Some (Json.Str "hit") in
              Probe.sample (if hit then "rpc.emit_hit" else "rpc.emit_miss") dt;
              (match Json.member "plan" r.result with
              | Some p ->
                  Probe.add "plan.hits" (float_of_int (int_field p "hits"));
                  Probe.add "plan.misses" (float_of_int (int_field p "misses"));
                  Probe.add "plan.conflicts" (float_of_int (int_field p "conflicts"))
              | None -> ());
              if Json.member "verified" r.result <> Some (Json.Bool true) then
                fail "emit not verified"
              else
                let digest = E9_bits.Fnv.(to_hex (hash64_string r.data)) in
                match st.first.(ci).(si) with
                | Some f when f.digest <> digest -> fail "bytes differ from the first pass"
                | Some _ -> ()
                | None ->
                    let patched, selected = coverage r.result in
                    st.first.(ci).(si) <-
                      Some
                        { digest; patched; selected;
                          data = (if List.mem (ci, si) st.replay then r.data else "");
                          size = String.length r.data / 2 })
      in
      lat := latency :: !lat)
    st.plan.(ci).sessions;
  (List.rev !lat, !att, List.rev !fails)

(* Telemetry of one pass alone: the server's rollup after the pass minus
   the rollup after its set-up. *)
let agg_diff (a : Obs.Agg.agg) (b : Obs.Agg.agg) =
  let d = Obs.Agg.create () in
  Array.iteri (fun i v -> d.Obs.Agg.accepted.(i) <- v - b.Obs.Agg.accepted.(i)) a.Obs.Agg.accepted;
  Array.iteri (fun i v -> d.Obs.Agg.rejected.(i) <- v - b.Obs.Agg.rejected.(i)) a.Obs.Agg.rejected;
  d.Obs.Agg.sites <- a.Obs.Agg.sites - b.Obs.Agg.sites;
  d.Obs.Agg.sites_patched <- a.Obs.Agg.sites_patched - b.Obs.Agg.sites_patched;
  Hashtbl.iter
    (fun k (c, ns) ->
      let c0, ns0 = Option.value ~default:(0, 0) (Hashtbl.find_opt b.Obs.Agg.spans k) in
      Hashtbl.replace d.Obs.Agg.spans k (c - c0, ns - ns0))
    a.Obs.Agg.spans;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace d.Obs.Agg.counters k
        (v - Option.value ~default:0 (Hashtbl.find_opt b.Obs.Agg.counters k)))
    a.Obs.Agg.counters;
  d

let cache_counts server =
  let ctx = Server.ctx server in
  let r = Cache.stats ctx.Session.result_cache and d = Cache.stats ctx.Session.decode_cache in
  [| r.Cache.hits; r.Cache.misses; d.Cache.hits; d.Cache.misses;
     Atomic.get ctx.Session.bypassed |]

let pass st () =
  let server =
    match st.pending with
    | Some s ->
        st.pending <- None;
        s
    | None -> warm st
  in
  let agg0 = Server.agg server and caches0 = cache_counts server in
  let other = Domain.spawn (fun () -> run_client st server 1) in
  let l0, a0, f0 = run_client st server 0 in
  let l1, a1, f1 = Domain.join other in
  if Probe.tracing () then begin
    Probe.merge_agg (agg_diff (Server.agg server) agg0);
    let c1 = cache_counts server in
    Array.iteri
      (fun i name -> Probe.add name (float_of_int (c1.(i) - caches0.(i))))
      [| "rpc.result_hits"; "rpc.result_misses"; "rpc.decode_hits";
         "rpc.decode_misses"; "rpc.decode_bypassed" |]
  end;
  { Work.lanes = [ l0; l1 ]; attempted = a0 + a1; failures = f0 @ f1 }

(* {1 Oracles} *)

let finish st ~trace:_ =
  let failures = ref [] in
  let fail ci si m = failures := Printf.sprintf "replay %d/%d: %s" ci si m :: !failures in
  let cycles = ref [] in
  List.iter
    (fun (ci, si) ->
      match st.first.(ci).(si) with
      | None -> fail ci si "never served"
      | Some f -> (
          let e = st.plan.(ci).sessions.(si).emit in
          let cold = Server.create () in
          let data = ref "" in
          ignore
            (run_session cold (load e) ~on_reply:(fun meth _ r ->
                 match r.error with
                 | Some m -> fail ci si (meth ^ ": " ^ m)
                 | None -> if meth = "emit" then data := r.data));
          if !data <> f.data then fail ci si "cold replay differs from the served bytes"
          else
            match Proto.bytes_of_hex f.data with
            | Error m -> fail ci si m
            | Ok out -> (
                let original = Elf_file.of_bytes e.input and out = Elf_file.of_bytes out in
                Option.iter (fun m -> fail ci si ("static: " ^ m))
                  (verdict (Static.verify ~original out));
                (* Revisions are NOP-edited code: they rewrite soundly but
                   are not programs worth running. *)
                if not e.revision then
                  match Call.cycles ~original out with
                  | c -> cycles := c :: !cycles
                  | exception Failure m -> fail ci si m)))
    st.replay;
  (* Output quality over distinct emits: a repeat re-serves bytes already
     counted. *)
  let served =
    List.concat
      (List.init clients (fun ci ->
           List.filteri (fun si _ -> not st.plan.(ci).sessions.(si).repeat)
             (List.combine
                (Array.to_list (Array.map (fun s -> s.emit) st.plan.(ci).sessions))
                (Array.to_list st.first.(ci)))))
    |> List.filter_map (fun (e, f) -> Option.map (fun f -> (e, f)) f)
  in
  { Work.failures = List.rev !failures;
    patched = List.fold_left (fun acc (_, s) -> acc + s.patched) 0 served;
    selected = List.fold_left (fun acc (_, s) -> acc + s.selected) 0 served;
    sizes = List.map (fun (e, s) -> (Bytes.length e.input, s.size)) served;
    cycles = List.rev !cycles;
    serial_ref_s = 0.0 }

let generate seed =
  let plan = Array.init clients (fun index -> make_client ~seed ~index) in
  let rng = Rng.create (Int64.of_int (seed + 17)) in
  let all =
    Array.init (clients * sessions_per_client) (fun i ->
        (i / sessions_per_client, i mod sessions_per_client))
  in
  Rng.shuffle rng all;
  let replay = Array.to_list (Array.sub all 0 replays) in
  fun () ->
    let st =
      { plan; replay; pending = None;
        first = Array.init clients (fun _ -> Array.make sessions_per_client None) }
    in
    st.pending <- Some (warm st);
    { Work.steps = [| Work.Batch (pass st) |]; finish = finish st }

let workload = { Work.name = "serve-mix"; passes = 6; generate }
