(** E9_obs: structured telemetry for the rewrite hot path (DESIGN.md §9).

    The paper's evaluation hinges on per-tactic breakdowns — how often
    B1/B2/T1/T2/T3 fire and {e why} the others did not. This module is the
    event vocabulary and the sinks. Producers (the tactic engine, the
    layout allocator, the bench pipeline) emit through a {!t} handle; with
    the {!null} handle attached every emission is a single branch on an
    immediate value, so the hot path pays nothing when nobody is
    listening.

    Two real sinks are provided: an in-memory ring (bounded, oldest
    events dropped) for ndjson export ([e9patch patch --trace FILE]) and a
    streaming aggregator (constant memory) for the bench pipeline, whose
    per-tactic histogram and span totals land in
    [BENCH_throughput.json]. *)

(** Patch tactics. [E9_core.Stats.tactic] re-exports this type: the
    enum has one definition, here, below lib/core. *)
type tactic = B0 | B1 | B2 | T1 | T2 | T3

(** Why a tactic refused a site. *)
type reject =
  | Too_short  (** the instruction has too few bytes for this tactic *)
  | Locked  (** an earlier patch locked bytes the tactic must modify *)
  | Pun_miss  (** the punned displacement would read outside the text *)
  | Range  (** the reachable target window clamped to empty *)
  | Alloc_conflict  (** a valid window, but the allocator found no gap *)
  | No_successor  (** T2: the next address is not a displaceable site *)
  | Budget  (** the candidate-search budget ran out *)
  | Injected  (** a fault-injection rule refused the query (DESIGN.md §11) *)
  | Dead_window
      (** the window is blocked by the base occupancy (guards/segments)
          alone — structurally unservable by any allocator *)

type outcome =
  | Accepted of { trampoline : int; pad : int; evictee_distance : int }
      (** [pad] is the bytes of prefix padding (T1); [evictee_distance]
          the byte distance from the patch site to the displaced victim
          (T2/T3), 0 when nothing was evicted. *)
  | Rejected of reject

type event =
  | Attempt of { addr : int; tactic : tactic; outcome : outcome }
      (** one record per tactic tried at a patch site *)
  | Site of { addr : int; tactic : tactic option }
      (** final per-site verdict; [None] = all tactics fell through *)
  | Span of { name : string; dur_ns : int }
      (** a timed phase (decode, tactic_search, layout, serialize), in
          monotonic nanoseconds — integer ns all the way
          to the reporting edge, so sub-microsecond phases aggregate to
          their true total instead of rounding to 0 per call *)
  | Gauge of { name : string; value : int }
      (** point-in-time occupancy/fragmentation reading *)
  | Counter of { name : string; value : int }
      (** monotonic count (emulator cache hits/misses/invalidations) *)
  | Fault of { site : string; fires : int }
      (** end-of-run fault-injection summary: how many times rules at
          [site] fired (one event per site with fires > 0) *)

val tactic_name : tactic -> string
val reject_name : reject -> string

(** [monotonic_ns ()] — [CLOCK_MONOTONIC] in nanoseconds (C stub):
    immune to wall-clock steps, fine enough for sub-microsecond spans.
    Only differences are meaningful. *)
val monotonic_ns : unit -> int64

(** {1 Sinks} *)

type t

(** The detached sink: [enabled] is false, every emission is a no-op. *)
val null : t

(** [ring ~capacity ()] buffers the most recent [capacity] events
    (default 1 lsl 20). *)
val ring : ?capacity:int -> unit -> t

(** [aggregator ()] folds events into an {!Agg.t} as they arrive and
    stores nothing else — constant memory however many sites a rewrite
    visits. *)
val aggregator : unit -> t

val enabled : t -> bool

(** [events t] — ring contents, oldest first ([[]] for other sinks). *)
val events : t -> event list

(** [dropped t] — events lost to ring overflow. *)
val dropped : t -> int

(** {1 Guarded emission helpers}

    These construct the event only when the sink is attached, so callers
    on the hot path need no [if Obs.enabled] of their own. *)

val accept :
  t -> addr:int -> tactic:tactic -> trampoline:int -> pad:int ->
  evictee_distance:int -> unit

val reject : t -> addr:int -> tactic:tactic -> reason:reject -> unit
val site : t -> addr:int -> tactic:tactic option -> unit
val gauge : t -> name:string -> value:int -> unit
val counter : t -> name:string -> value:int -> unit
val fault : t -> site:string -> fires:int -> unit

(** [span t name f] runs [f] and emits its wall-clock duration; with the
    null sink it is exactly [f ()] (no clock reads). Exceptions from [f]
    still emit the span. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** {1 Aggregation} *)

module Agg : sig
  (** A Table-3-style rollup: per-tactic acceptance counts, reject-reason
      histogram, padding-byte total, span totals, last gauge values and
      summed counters. Mutable; merge partial aggregates from parallel
      domains with {!merge_into}. *)
  type agg = {
    accepted : int array;  (** indexed by {!tactic} *)
    rejected : int array;  (** indexed by {!reject} *)
    mutable sites : int;
    mutable sites_patched : int;
    mutable sites_failed : int;
    mutable pad_bytes : int;
    spans : (string, int * int) Hashtbl.t;  (** name -> calls, total ns *)
    gauges : (string, int) Hashtbl.t;  (** name -> last value *)
    counters : (string, int) Hashtbl.t;  (** name -> sum *)
  }

  val create : unit -> agg
  val add_event : agg -> event -> unit
  val of_events : event list -> agg

  (** [merge_into ~dst src] adds [src] into [dst] (gauges: [src] wins). *)
  val merge_into : dst:agg -> agg -> unit

  (** [span_total a name] is the summed duration of span [name] in
      seconds (0 when it never ran) — the lookup the bench sweep and the
      RPC service's per-request accounting both need. Computed from the
      integer-nanosecond total, so it is exact to 1ns however short the
      individual calls were. *)
  val span_total : agg -> string -> float

  (** [counter_total a name] is the summed value of counter [name]
      (0 when never emitted). *)
  val counter_total : agg -> string -> int

  (** [tactics_json a] is the histogram object for
      [BENCH_throughput.json]: accepted counts keyed [b0..t3], site
      totals, [pad_bytes] and a [rejects] sub-object. *)
  val tactics_json : agg -> Json.t

  (** [spans_json a] maps each span name to [{calls, total_ns,
      total_s}]; [total_ns] is authoritative, [total_s] derived. *)
  val spans_json : agg -> Json.t

  val pp : Format.formatter -> agg -> unit
end

(** [agg t] — the aggregator's rollup, or one computed from a ring's
    buffered events (empty for {!null}). *)
val agg : t -> Agg.agg

(** {1 ndjson export and schema validation} *)

val event_to_json : event -> Json.t

(** [event_of_json j] validates one trace line against the schema —
    required keys, value types, enum spellings — and reconstructs the
    event. [Error] strings name the offending field. *)
val event_of_json : Json.t -> (event, string) result

(** [to_ndjson t] renders the ring's events, one JSON object per line. *)
val to_ndjson : t -> string

(** A trace-sink write failed; the partially written temp file has been
    removed and nothing exists at the destination path. *)
exception Sink_error of string

(** [write_ndjson t path] writes {!to_ndjson} output to [path],
    atomically (temp file + rename): either the complete trace lands at
    [path] or {!Sink_error} is raised and no file is left behind. [fault]
    (used by the injection campaign) simulates a short write when it
    returns [true]. *)
val write_ndjson : ?fault:(unit -> bool) -> t -> string -> unit

(** [validate_ndjson s] parses and schema-checks every line. *)
val validate_ndjson : string -> (event list, string) result
