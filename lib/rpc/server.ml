module Json = E9_obs.Json
module Obs = E9_obs.Obs
module Fault = E9_fault.Fault
module Pool = E9_bits.Pool

type t = {
  ctx : Session.ctx;
  fault : Fault.t;
  trace_dir : string option;
  agg : Obs.Agg.agg;
  agg_mutex : Mutex.t;
  lat_mutex : Mutex.t;
  mutable latencies : float list;
  requests : int Atomic.t;
  errors : int Atomic.t;
  started : int Atomic.t;
  closed : int Atomic.t;
  session_seq : int Atomic.t;
  stop_flag : bool Atomic.t;
}

let requests t = Atomic.get t.requests
let errors t = Atomic.get t.errors
let sessions t = (Atomic.get t.started, Atomic.get t.closed)
let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let ctx t = t.ctx

let status_json_of ~decode_cache ~result_cache ~bypassed
    ~requests ~errors ~started ~closed () =
  let decode_stats =
    match Cache.stats_json (Cache.stats decode_cache) with
    | Json.Obj fields ->
        (* Result-cache hits short-circuit before the decode cache is
           consulted; without this field a hot result cache makes the
           decode cache read as 0% useful. *)
        Json.Obj (fields @ [ ("bypassed", Json.Int (Atomic.get bypassed)) ])
    | j -> j
  in
  Json.Obj
    [
      ( "sessions",
        Json.Obj
          [ ("started", Json.Int (Atomic.get started));
            ("closed", Json.Int (Atomic.get closed)) ] );
      ("requests", Json.Int (Atomic.get requests));
      ("errors", Json.Int (Atomic.get errors));
      ("decode_cache", decode_stats);
      ("result_cache", Cache.stats_json (Cache.stats result_cache));
    ]

let create ?(cache_capacity = 64) ?(fault = Fault.none) ?trace_dir () =
  let decode_cache = Cache.create ~capacity:cache_capacity () in
  let result_cache = Cache.create ~capacity:cache_capacity () in
  let raw_cache = Cache.create ~capacity:cache_capacity () in
  let bypassed = Atomic.make 0 in
  let requests = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let started = Atomic.make 0 in
  let closed = Atomic.make 0 in
  let status =
    status_json_of ~decode_cache ~result_cache ~bypassed
      ~requests ~errors ~started ~closed
  in
  {
    ctx =
      { Session.decode_cache; result_cache; raw_cache; bypassed;
        fault; status };
    fault;
    trace_dir;
    agg = Obs.Agg.create ();
    agg_mutex = Mutex.create ();
    lat_mutex = Mutex.create ();
    latencies = [];
    requests;
    errors;
    started;
    closed;
    session_seq = Atomic.make 0;
    stop_flag = Atomic.make false;
  }

let agg t =
  Mutex.lock t.agg_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.agg_mutex)
    (fun () ->
      let copy = Obs.Agg.create () in
      Obs.Agg.merge_into ~dst:copy t.agg;
      copy)

let status_json t = t.ctx.Session.status ()

let record_latency t dt =
  Mutex.lock t.lat_mutex;
  t.latencies <- dt :: t.latencies;
  Mutex.unlock t.lat_mutex

let latencies t =
  Mutex.lock t.lat_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lat_mutex)
    (fun () -> t.latencies)

let latency_percentile t p =
  let xs = latencies t in
  match xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

(* ------------------------------------------------------------------ *)
(* In-process transport                                                *)
(* ------------------------------------------------------------------ *)

type conn = {
  server : t;
  session : Session.t;
  obs : Obs.t;
  index : int;
  mutable alive : bool;
  mutable finalized : bool;
}

let accept_gate t = not (Fault.fires t.fault Fault.Rpc_accept)

let connect t =
  let index = Atomic.fetch_and_add t.session_seq 1 in
  Atomic.incr t.started;
  let obs =
    match t.trace_dir with Some _ -> Obs.ring () | None -> Obs.aggregator ()
  in
  { server = t; session = Session.create t.ctx ~obs; obs; index;
    alive = true; finalized = false }

let close_conn conn =
  if not conn.finalized then begin
    conn.alive <- false;
    conn.finalized <- true;
    let t = conn.server in
    Atomic.incr t.closed;
    Mutex.lock t.agg_mutex;
    Obs.Agg.merge_into ~dst:t.agg (Obs.agg conn.obs);
    Mutex.unlock t.agg_mutex;
    match t.trace_dir with
    | None -> ()
    | Some dir -> (
        let path =
          Filename.concat dir (Printf.sprintf "session-%d.ndjson" conn.index)
        in
        (* A lost trace must not take the session accounting down with
           it — same discipline as the CLI's --trace flag. *)
        try Obs.write_ndjson conn.obs path
        with Obs.Sink_error m ->
          Logs.warn (fun f -> f "rpc: trace %s lost: %s" path m))
  end

let null_error ~code ~message =
  Json.to_string (Proto.error_response Proto.Null_id ~code ~message ())

let is_error_json = function
  | Json.Obj fields -> List.mem_assoc "error" fields
  | _ -> false

(* One validated-or-not batch entry. Returns the response (None for a
   handled notification) and the session/daemon verdict flags. *)
let handle_incoming conn inc =
  let t = conn.server in
  match inc with
  | Proto.Invalid m ->
      Atomic.incr t.requests;
      Atomic.incr t.errors;
      ( Some
          (Proto.error_response Proto.Null_id ~code:Proto.invalid_request
             ~message:m ()),
        false, false )
  | Proto.Request req ->
      Atomic.incr t.requests;
      let t0 = Unix.gettimeofday () in
      let verdict = Session.handle conn.session req in
      record_latency t (Unix.gettimeofday () -. t0);
      (match verdict.Session.reply with
      | Some r when is_error_json r -> Atomic.incr t.errors
      | _ -> ());
      (verdict.Session.reply, verdict.Session.close, verdict.Session.stop)

let feed conn line =
  if not conn.alive then ([], false)
  else begin
    let t = conn.server in
    if Fault.fires t.fault Fault.Rpc_read then begin
      (* The read itself failed: nothing to respond to. *)
      conn.alive <- false;
      ([], false)
    end
    else if Fault.fires t.fault Fault.Rpc_decode then begin
      conn.alive <- false;
      Atomic.incr t.errors;
      ( [ null_error ~code:Proto.injected_fault
            ~message:"injected rpc decode fault" ],
        false )
    end
    else
      let close_session close =
        if close then conn.alive <- false;
        conn.alive
      in
      match Proto.parse_line line with
      | Proto.Unparsable m ->
          Atomic.incr t.requests;
          Atomic.incr t.errors;
          conn.alive <- false;
          ([ null_error ~code:Proto.parse_error ~message:("parse error: " ^ m) ],
            false)
      | Proto.Empty_batch ->
          Atomic.incr t.requests;
          Atomic.incr t.errors;
          ( [ null_error ~code:Proto.invalid_request ~message:"empty batch" ],
            close_session false )
      | Proto.Single inc ->
          let reply, close, stop_req = handle_incoming conn inc in
          if stop_req then stop t;
          ( (match reply with None -> [] | Some r -> [ Json.to_string r ]),
            close_session close )
      | Proto.Batch incs ->
          (* Entries run in order; a session-fatal entry aborts the rest
             of the batch (the session they would run in is gone). *)
          let replies = ref [] in
          let closed = ref false in
          let stop_req = ref false in
          List.iter
            (fun inc ->
              if not !closed then begin
                let reply, close, stop' = handle_incoming conn inc in
                (match reply with
                | Some r -> replies := r :: !replies
                | None -> ());
                if close then closed := true;
                if stop' then stop_req := true
              end)
            incs;
          if !stop_req then stop t;
          let out =
            match List.rev !replies with
            | [] -> []  (* all notifications: no response line at all *)
            | rs -> [ Json.to_string (Json.List rs) ]
          in
          (out, close_session !closed)
  end

(* ------------------------------------------------------------------ *)
(* Channel transport (stdio)                                           *)
(* ------------------------------------------------------------------ *)

let serve_channels t ic oc =
  let conn = connect t in
  Fun.protect
    ~finally:(fun () -> close_conn conn)
    (fun () ->
      let rec loop () =
        if conn.alive && not (stopping t) then
          match input_line ic with
          | exception End_of_file -> ()
          | line when String.trim line = "" -> loop ()
          | line ->
              let outs, alive = feed conn line in
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                outs;
              flush oc;
              if alive then loop ()
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Unix-domain socket transport                                        *)
(* ------------------------------------------------------------------ *)

let serve_unix t ~path ?domains ?max_sessions () =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let service = Pool.Service.create ?domains () in
  Fun.protect
    ~finally:(fun () ->
      Pool.Service.shutdown service;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      let accepted = ref 0 in
      let continue () =
        (not (stopping t))
        && match max_sessions with None -> true | Some m -> !accepted < m
      in
      while continue () do
        (* Poll with a timeout so a shutdown request lands within 100ms
           even when no connection ever arrives. *)
        match Unix.select [ sock ] [] [] 0.1 with
        | [], _, _ -> ()
        | _ :: _, _, _ ->
            let fd, _ = Unix.accept sock in
            if not (accept_gate t) then
              (* Injected accept fault: drop the connection before a
                 session exists. The client sees EOF; the daemon moves
                 straight to the next accept. *)
              try Unix.close fd with Unix.Unix_error _ -> ()
            else begin
              incr accepted;
              Pool.Service.submit service (fun () ->
                  let ic = Unix.in_channel_of_descr fd in
                  let oc = Unix.out_channel_of_descr fd in
                  Fun.protect
                    ~finally:(fun () ->
                      (* close_out closes the shared fd; the input
                         channel is abandoned empty so nothing touches
                         the descriptor again (no double close). *)
                      try close_out oc with Sys_error _ -> ())
                    (fun () -> serve_channels t ic oc))
            end
      done)
