(** The rewriting daemon: sessions over transports (DESIGN.md §13).

    A server owns what sessions share — the two content-addressed caches,
    the fault capability, telemetry rollup, latency records and the
    counters behind the [status] method. Transports deliver lines to
    sessions: {!connect}/{!feed} is the in-process transport (tests,
    bench, fuzzing — no fds involved), {!serve_channels} runs one session
    over channels (the CLI's stdio mode), {!serve_unix} accepts
    connections on a Unix-domain socket and schedules each onto a
    {!E9_bits.Pool.Service} worker pool — the daemon parallelizes across
    sessions while each rewrite runs with [jobs] domains (default 1).

    Containment: a session failure — malformed request, injected fault,
    even a bug escaping the session layer — closes that session only.
    The accept loop and sibling sessions keep running; [Pool.Service]
    traps anything that gets past the session's own typed-error fence. *)

module Json = E9_obs.Json

type t

(** [create ()] — [cache_capacity] sizes the decode/result/raw caches
    (default 64); [jobs] is the per-rewrite domain count handed to sessions
    (default 1); [fault] may carry [Rpc_*] rules; [trace_dir], when
    set, makes each session buffer telemetry in a ring and write
    [session-N.ndjson] there on close. *)
val create :
  ?cache_capacity:int -> ?jobs:int ->
  ?fault:E9_fault.Fault.t -> ?trace_dir:string -> unit -> t

val ctx : t -> Session.ctx

(** [stop t] asks every transport loop to wind down (the [shutdown]
    method calls this through its verdict). *)
val stop : t -> unit

val stopping : t -> bool

(** {1 In-process transport} *)

type conn

(** [accept_gate t] plays the accept-time fault point: [false] means an
    [Rpc_accept] rule fired and the connection must be dropped before a
    session exists. {!serve_unix} consults it; in-process drivers should
    too, so fault campaigns exercise the same path. *)
val accept_gate : t -> bool

val connect : t -> conn

(** [feed conn line] delivers one wire line; returns the response lines
    (0 for notifications, 1 otherwise — a batch answers as one array
    line) and whether the session is still alive. Feeding a dead
    connection returns [([], false)]. *)
val feed : conn -> string -> string list * bool

(** [close_conn conn] finalizes: merges the session's telemetry into the
    server rollup, writes its trace file under [trace_dir], bumps the
    closed-session counter. Idempotent. *)
val close_conn : conn -> unit

(** {1 Channel and socket transports} *)

(** [serve_channels t ic oc] runs one session: reads lines from [ic]
    until EOF, session death or {!stop}; writes each response line to
    [oc] (flushed per line). *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** [serve_unix t ~path ()] binds a Unix-domain socket at [path]
    (unlinking any stale one), accepts until {!stop} or [max_sessions]
    connections, and serves each on a worker-pool domain ([domains],
    default {!E9_bits.Pool.default_domains}). Returns after draining
    in-flight sessions, closing every session fd and unlinking [path]. *)
val serve_unix :
  t -> path:string -> ?domains:int -> ?max_sessions:int -> unit -> unit

(** {1 Server-level accounting} *)

val requests : t -> int

val errors : t -> int  (** error responses sent *)

(** (started, closed). *)
val sessions : t -> int * int

(** All per-request wall-clock latencies recorded so far, seconds. *)
val latencies : t -> float list

(** [latency_percentile t p] — the [p]-quantile ([0..1]) of recorded
    request latencies, 0 when none. *)
val latency_percentile : t -> float -> float

(** Merged telemetry rollup from every closed session. *)
val agg : t -> E9_obs.Obs.Agg.agg

(** The [status] payload (also what the RPC method returns). *)
val status_json : t -> Json.t
