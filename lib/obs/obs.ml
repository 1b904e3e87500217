type tactic = B0 | B1 | B2 | T1 | T2 | T3

type reject =
  | Too_short
  | Locked
  | Pun_miss
  | Range
  | Alloc_conflict
  | No_successor
  | Budget
  | Injected
  | Dead_window

type outcome =
  | Accepted of { trampoline : int; pad : int; evictee_distance : int }
  | Rejected of reject

(* Monotonic nanoseconds (C stub): immune to clock steps, and fine
   enough that sub-microsecond spans aggregate to their true total
   instead of rounding to 0 at every call. *)
external monotonic_ns : unit -> int64 = "e9_obs_monotonic_ns"

type event =
  | Attempt of { addr : int; tactic : tactic; outcome : outcome }
  | Site of { addr : int; tactic : tactic option }
  | Span of { name : string; dur_ns : int }
  | Gauge of { name : string; value : int }
  | Counter of { name : string; value : int }
  | Fault of { site : string; fires : int }

let tactics = [| B0; B1; B2; T1; T2; T3 |]
let tactic_index = function B0 -> 0 | B1 -> 1 | B2 -> 2 | T1 -> 3 | T2 -> 4 | T3 -> 5

let tactic_name = function
  | B0 -> "B0"
  | B1 -> "B1"
  | B2 -> "B2"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"

let tactic_of_name = function
  | "B0" -> Some B0
  | "B1" -> Some B1
  | "B2" -> Some B2
  | "T1" -> Some T1
  | "T2" -> Some T2
  | "T3" -> Some T3
  | _ -> None

let rejects =
  [| Too_short; Locked; Pun_miss; Range; Alloc_conflict; No_successor; Budget;
     Injected; Dead_window |]

let reject_index = function
  | Too_short -> 0
  | Locked -> 1
  | Pun_miss -> 2
  | Range -> 3
  | Alloc_conflict -> 4
  | No_successor -> 5
  | Budget -> 6
  | Injected -> 7
  | Dead_window -> 8

let reject_name = function
  | Too_short -> "too_short"
  | Locked -> "locked"
  | Pun_miss -> "pun_miss"
  | Range -> "range"
  | Alloc_conflict -> "alloc_conflict"
  | No_successor -> "no_successor"
  | Budget -> "budget"
  | Injected -> "injected"
  | Dead_window -> "dead_window"

let reject_of_name = function
  | "too_short" -> Some Too_short
  | "locked" -> Some Locked
  | "pun_miss" -> Some Pun_miss
  | "range" -> Some Range
  | "alloc_conflict" -> Some Alloc_conflict
  | "no_successor" -> Some No_successor
  | "budget" -> Some Budget
  | "injected" -> Some Injected
  | "dead_window" -> Some Dead_window
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

module Agg = struct
  type agg = {
    accepted : int array;
    rejected : int array;
    mutable sites : int;
    mutable sites_patched : int;
    mutable sites_failed : int;
    mutable pad_bytes : int;
    spans : (string, int * int) Hashtbl.t;  (* calls, total ns *)
    gauges : (string, int) Hashtbl.t;
    counters : (string, int) Hashtbl.t;
  }

  let create () =
    { accepted = Array.make (Array.length tactics) 0;
      rejected = Array.make (Array.length rejects) 0;
      sites = 0;
      sites_patched = 0;
      sites_failed = 0;
      pad_bytes = 0;
      spans = Hashtbl.create 8;
      gauges = Hashtbl.create 8;
      counters = Hashtbl.create 8 }

  let add_event a = function
    | Attempt { tactic; outcome = Accepted { pad; _ }; _ } ->
        let i = tactic_index tactic in
        a.accepted.(i) <- a.accepted.(i) + 1;
        a.pad_bytes <- a.pad_bytes + pad
    | Attempt { outcome = Rejected r; _ } ->
        let i = reject_index r in
        a.rejected.(i) <- a.rejected.(i) + 1
    | Site { tactic; _ } ->
        a.sites <- a.sites + 1;
        if tactic = None then a.sites_failed <- a.sites_failed + 1
        else a.sites_patched <- a.sites_patched + 1
    | Span { name; dur_ns } ->
        let calls, total =
          Option.value ~default:(0, 0) (Hashtbl.find_opt a.spans name)
        in
        Hashtbl.replace a.spans name (calls + 1, total + dur_ns)
    | Gauge { name; value } -> Hashtbl.replace a.gauges name value
    | Counter { name; value } ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt a.counters name) in
        Hashtbl.replace a.counters name (prev + value)
    | Fault { site; fires } ->
        let name = "fault." ^ site in
        let prev = Option.value ~default:0 (Hashtbl.find_opt a.counters name) in
        Hashtbl.replace a.counters name (prev + fires)

  let of_events evs =
    let a = create () in
    List.iter (add_event a) evs;
    a

  let merge_into ~dst src =
    Array.iteri (fun i n -> dst.accepted.(i) <- dst.accepted.(i) + n) src.accepted;
    Array.iteri (fun i n -> dst.rejected.(i) <- dst.rejected.(i) + n) src.rejected;
    dst.sites <- dst.sites + src.sites;
    dst.sites_patched <- dst.sites_patched + src.sites_patched;
    dst.sites_failed <- dst.sites_failed + src.sites_failed;
    dst.pad_bytes <- dst.pad_bytes + src.pad_bytes;
    Hashtbl.iter
      (fun name (calls, total) ->
        let c0, t0 =
          Option.value ~default:(0, 0) (Hashtbl.find_opt dst.spans name)
        in
        Hashtbl.replace dst.spans name (c0 + calls, t0 + total))
      src.spans;
    Hashtbl.iter (fun name v -> Hashtbl.replace dst.gauges name v) src.gauges;
    Hashtbl.iter
      (fun name v ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt dst.counters name) in
        Hashtbl.replace dst.counters name (prev + v))
      src.counters

  let sorted_bindings tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let tactics_json a =
    Json.Obj
      [ ("sites", Json.Int a.sites);
        ("patched", Json.Int a.sites_patched);
        ("failed", Json.Int a.sites_failed);
        ("b0", Json.Int a.accepted.(tactic_index B0));
        ("b1", Json.Int a.accepted.(tactic_index B1));
        ("b2", Json.Int a.accepted.(tactic_index B2));
        ("t1", Json.Int a.accepted.(tactic_index T1));
        ("t2", Json.Int a.accepted.(tactic_index T2));
        ("t3", Json.Int a.accepted.(tactic_index T3));
        ("pad_bytes", Json.Int a.pad_bytes);
        ("rejects",
         Json.Obj
           (Array.to_list
              (Array.map
                 (fun r -> (reject_name r, Json.Int a.rejected.(reject_index r)))
                 rejects))) ]

  let spans_json a =
    Json.Obj
      (List.map
         (fun (name, (calls, total_ns)) ->
           ( name,
             Json.Obj
               [ ("calls", Json.Int calls);
                 ("total_ns", Json.Int total_ns);
                 ("total_s", Json.Float (float_of_int total_ns /. 1e9)) ] ))
         (sorted_bindings a.spans))

  let span_total a name =
    match Hashtbl.find_opt a.spans name with
    | Some (_, total_ns) -> float_of_int total_ns /. 1e9
    | None -> 0.0

  let span_total_ns a name =
    match Hashtbl.find_opt a.spans name with
    | Some (_, total_ns) -> total_ns
    | None -> 0

  let counter_total a name =
    match Hashtbl.find_opt a.counters name with Some n -> n | None -> 0

  let counters_json a =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_bindings a.counters))

  let gauges_json a =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_bindings a.gauges))

  let pp ppf a =
    Format.fprintf ppf "sites=%d patched=%d failed=%d" a.sites a.sites_patched
      a.sites_failed;
    Array.iter
      (fun t ->
        let n = a.accepted.(tactic_index t) in
        if n > 0 then Format.fprintf ppf " %s=%d" (tactic_name t) n)
      tactics;
    Array.iter
      (fun r ->
        let n = a.rejected.(reject_index r) in
        if n > 0 then Format.fprintf ppf " !%s=%d" (reject_name r) n)
      rejects
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type ring_state = { buf : event array; mutable n : int }

type t = Null | Ring of ring_state | Aggregate of Agg.agg

let null = Null

(* The slot array is pre-filled with a throwaway event; slots past [n] are
   never read. *)
let ring ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Obs.ring: capacity must be positive";
  Ring { buf = Array.make capacity (Gauge { name = ""; value = 0 }); n = 0 }

let aggregator () = Aggregate (Agg.create ())
let enabled = function Null -> false | Ring _ | Aggregate _ -> true

let emit t e =
  match t with
  | Null -> ()
  | Ring r ->
      r.buf.(r.n mod Array.length r.buf) <- e;
      r.n <- r.n + 1
  | Aggregate a -> Agg.add_event a e

let events = function
  | Null | Aggregate _ -> []
  | Ring r ->
      let cap = Array.length r.buf in
      let len = min r.n cap in
      List.init len (fun i -> r.buf.((r.n - len + i) mod cap))

let dropped = function Null | Aggregate _ -> 0 | Ring r -> max 0 (r.n - Array.length r.buf)

let agg = function
  | Null -> Agg.create ()
  | Aggregate a -> a
  | Ring _ as t -> Agg.of_events (events t)

let accept t ~addr ~tactic ~trampoline ~pad ~evictee_distance =
  match t with
  | Null -> ()
  | _ ->
      emit t
        (Attempt
           { addr; tactic; outcome = Accepted { trampoline; pad; evictee_distance } })

let reject t ~addr ~tactic ~reason =
  match t with
  | Null -> ()
  | _ -> emit t (Attempt { addr; tactic; outcome = Rejected reason })

let site t ~addr ~tactic =
  match t with Null -> () | _ -> emit t (Site { addr; tactic })

let gauge t ~name ~value =
  match t with Null -> () | _ -> emit t (Gauge { name; value })

let counter t ~name ~value =
  match t with Null -> () | _ -> emit t (Counter { name; value })

let fault t ~site ~fires =
  match t with Null -> () | _ -> emit t (Fault { site; fires })

let span t name f =
  match t with
  | Null -> f ()
  | _ ->
      let t0 = monotonic_ns () in
      Fun.protect
        ~finally:(fun () ->
          emit t
            (Span
               { name;
                 dur_ns = Int64.to_int (Int64.sub (monotonic_ns ()) t0) }))
        f

(* ------------------------------------------------------------------ *)
(* ndjson                                                              *)
(* ------------------------------------------------------------------ *)

let event_to_json = function
  | Attempt { addr; tactic; outcome } ->
      let base =
        [ ("ev", Json.Str "attempt");
          ("addr", Json.Int addr);
          ("tactic", Json.Str (tactic_name tactic)) ]
      in
      Json.Obj
        (base
        @
        match outcome with
        | Accepted { trampoline; pad; evictee_distance } ->
            [ ("outcome", Json.Str "accepted");
              ("trampoline", Json.Int trampoline);
              ("pad", Json.Int pad);
              ("evictee_distance", Json.Int evictee_distance) ]
        | Rejected r -> [ ("outcome", Json.Str "rejected"); ("reason", Json.Str (reject_name r)) ])
  | Site { addr; tactic } ->
      Json.Obj
        [ ("ev", Json.Str "site");
          ("addr", Json.Int addr);
          ("tactic",
           match tactic with
           | Some t -> Json.Str (tactic_name t)
           | None -> Json.Null) ]
  | Span { name; dur_ns } ->
      Json.Obj
        [ ("ev", Json.Str "span");
          ("name", Json.Str name);
          ("dur_ns", Json.Int dur_ns);
          (* Derived convenience for human readers; dur_ns is the
             authoritative value and the one the reader consumes. *)
          ("dur_s", Json.Float (float_of_int dur_ns /. 1e9)) ]
  | Gauge { name; value } ->
      Json.Obj
        [ ("ev", Json.Str "gauge"); ("name", Json.Str name); ("value", Json.Int value) ]
  | Counter { name; value } ->
      Json.Obj
        [ ("ev", Json.Str "counter"); ("name", Json.Str name); ("value", Json.Int value) ]
  | Fault { site; fires } ->
      Json.Obj
        [ ("ev", Json.Str "fault"); ("site", Json.Str site); ("fires", Json.Int fires) ]

let ( let* ) = Result.bind

let field j key =
  match Json.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let int_field j key =
  let* v = field j key in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S is not an integer" key)

let str_field j key =
  let* v = field j key in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" key)

let num_field j key =
  let* v = field j key in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S is not a number" key)

let tactic_field j key =
  let* s = str_field j key in
  match tactic_of_name s with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "field %S: unknown tactic %S" key s)

let event_of_json j =
  match j with
  | Json.Obj _ -> (
      let* ev = str_field j "ev" in
      match ev with
      | "attempt" -> (
          let* addr = int_field j "addr" in
          let* tactic = tactic_field j "tactic" in
          let* outcome = str_field j "outcome" in
          match outcome with
          | "accepted" ->
              let* trampoline = int_field j "trampoline" in
              let* pad = int_field j "pad" in
              let* evictee_distance = int_field j "evictee_distance" in
              Ok
                (Attempt
                   { addr;
                     tactic;
                     outcome = Accepted { trampoline; pad; evictee_distance } })
          | "rejected" -> (
              let* reason = str_field j "reason" in
              match reject_of_name reason with
              | Some r -> Ok (Attempt { addr; tactic; outcome = Rejected r })
              | None -> Error (Printf.sprintf "unknown reject reason %S" reason))
          | other -> Error (Printf.sprintf "unknown outcome %S" other))
      | "site" -> (
          let* addr = int_field j "addr" in
          let* t = field j "tactic" in
          match t with
          | Json.Null -> Ok (Site { addr; tactic = None })
          | Json.Str s -> (
              match tactic_of_name s with
              | Some t -> Ok (Site { addr; tactic = Some t })
              | None -> Error (Printf.sprintf "unknown tactic %S" s))
          | _ -> Error "field \"tactic\" is neither null nor a string")
      | "span" -> (
          let* name = str_field j "name" in
          match int_field j "dur_ns" with
          | Ok dur_ns -> Ok (Span { name; dur_ns })
          | Error _ ->
              (* Pre-nanosecond traces carried only dur_s. *)
              let* dur_s = num_field j "dur_s" in
              Ok (Span { name; dur_ns = int_of_float (dur_s *. 1e9) }))
      | "gauge" ->
          let* name = str_field j "name" in
          let* value = int_field j "value" in
          Ok (Gauge { name; value })
      | "counter" ->
          let* name = str_field j "name" in
          let* value = int_field j "value" in
          Ok (Counter { name; value })
      | "fault" ->
          let* site = str_field j "site" in
          let* fires = int_field j "fires" in
          Ok (Fault { site; fires })
      | other -> Error (Printf.sprintf "unknown event kind %S" other))
  | _ -> Error "trace line is not a JSON object"

let to_ndjson t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (event_to_json e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

exception Sink_error of string

(* Atomic: a sink failure (real or injected) never leaves a truncated
   trace masquerading as a complete one. *)
let write_ndjson ?fault t path =
  try E9_bits.Atomic_file.write ?fault path (to_ndjson t)
  with Sys_error m -> raise (Sink_error m)

let validate_ndjson s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.of_string line with
        | Error m -> Error (Printf.sprintf "line %d: %s" i m)
        | Ok j -> (
            match event_of_json j with
            | Error m -> Error (Printf.sprintf "line %d: %s" i m)
            | Ok e -> go (e :: acc) (i + 1) rest))
  in
  go [] 1 lines
