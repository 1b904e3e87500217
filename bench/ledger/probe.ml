(* The ledger's own tracing: spans around every public call a workload
   makes, labelled samples, and layer totals. Everything is a no-op until
   [start] switches tracing on, so the untraced run measures the program
   alone. Spans are kept in memory and written out once, at exit. *)

module Obs = E9_obs.Obs

type span = {
  id : int;
  parent : int;  (** 0 = no parent *)
  op : int;  (** the op this span belongs to; 0 = outside any op *)
  name : string;
  t0 : int;  (** monotonic ns *)
  t1 : int;
}

let on = Atomic.make false
let lock = Mutex.create ()
let next_id = Atomic.make 1
let spans : span list ref = ref []
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let agg = ref (Obs.Agg.create ())
let sink = ref Obs.null

(* (enclosing span id, enclosing op id) of the calling domain. *)
let current = Domain.DLS.new_key (fun () -> (0, 0))

let tracing () = Atomic.get on

(* The telemetry sink to hand to [Rewriter.run] / [Tool.run]: an
   aggregator while tracing, the null sink otherwise. Not shared across
   domains: only single-domain workloads pass it. *)
let obs () = !sink

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start () =
  sink := Obs.aggregator ();
  Atomic.set on true

let stop () =
  Atomic.set on false;
  let a = Obs.agg !sink in
  sink := Obs.null;
  locked (fun () -> Obs.Agg.merge_into ~dst:!agg a)

let now_ns () = Int64.to_int (Obs.monotonic_ns ())

let record s = locked (fun () -> spans := s :: !spans)

let enter ~is_op name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent, outer_op = Domain.DLS.get current in
  let op = if is_op then id else outer_op in
  Domain.DLS.set current (id, op);
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      Domain.DLS.set current (parent, outer_op);
      record { id; parent; op; name; t0; t1 })
    f

(* [op f] runs one timed operation of a workload; [span name f] one
   public call inside it. *)
let op f = if tracing () then enter ~is_op:true "op" f else f ()
let span name f = if tracing () then enter ~is_op:false name f else f ()

let add name v =
  if tracing () then
    locked (fun () ->
        Hashtbl.replace totals name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals name)))

let sample name v =
  if tracing () then
    locked (fun () ->
        Hashtbl.replace samples name
          (v :: Option.value ~default:[] (Hashtbl.find_opt samples name)))

let merge_agg a = if tracing () then locked (fun () -> Obs.Agg.merge_into ~dst:!agg a)

(* {1 Reading the record back} *)

let total name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)
let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

let span_s name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + (s.t1 - s.t0) else acc)
    0 !spans
  |> fun ns -> float_of_int ns /. 1e9

(* Op time and op self time (the part no child span covers), seconds.
   Children of one op never overlap: the ledger calls the program
   sequentially within an op. *)
let op_and_self () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.t1 - s.t0 + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.fold_left
    (fun (op, self) s ->
      if s.name = "op" then
        let d = s.t1 - s.t0 in
        let c = Option.value ~default:0 (Hashtbl.find_opt child s.id) in
        (op + d, self + (d - c))
      else (op, self))
    (0, 0) !spans
  |> fun (op, self) -> (float_of_int op /. 1e9, float_of_int self /. 1e9)

let write_ndjson path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.id s.parent s.op s.name s.t0 s.t1)
        (List.rev !spans))
