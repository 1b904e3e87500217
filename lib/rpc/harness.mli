(** In-process driving of the RPC service: scripted sessions for tests
    and bench, and the [Rpc_*] fault-injection campaign (the daemon leg
    of DESIGN.md §11's hardening contract).

    The campaign crosses canned client sessions with random fault rules
    over the four daemon sites and checks the three-permitted-outcomes
    contract, daemon edition: every session either

    + is {e served}: the emit response is ok, verified, and its payload
      is byte-identical to a one-shot {!E9_core.Rewriter.run} of the same
      input (cache hit or miss — both must agree);
    + is {e dropped at the edge}: the accept gate refused it or its read
      failed, no response, no session state;
    + dies {e typed}: an injected-fault error response, the session
      closed, no partial output file.

    In every case the daemon itself survives — later sessions on the
    same server still get served or refused per the rules — and no
    [*.tmp] file is left behind. Anything else fails the case. *)

type fcase = { seed : int; rules : E9_fault.Fault.rule list }

val fcase_to_string : fcase -> string

(** [run_session server lines] connects, feeds [lines] in order
    (stopping early if the session dies), closes, and returns the
    response lines plus whether the session was still alive at the end.
    A session refused by the accept gate returns [([], false)] without
    feeding anything. *)
val run_session : Server.t -> string list -> string list * bool

(** [request ~id meth params] renders one request line. *)
val request : id:int -> string -> (string * E9_obs.Json.t) list -> string

(** The spec {!script} patches with when none is given. *)
val default_spec : string

(** A canned client script for one binary: load (inline hex), patch
    [spec], emit (returning hex data, plus writing [filename] when
    given). *)
val script :
  ?spec:string -> ?filename:string -> bytes -> string list

(** [reference ?spec raw] — the one-shot rewrite the service's emits
    must be byte-identical to: {!E9_tool.Tool.run} of [spec]'s rules,
    which rewrites what {!E9_tool.Tool.rewrite_input} decides, as the
    daemon does. *)
val reference : ?spec:string -> bytes -> bytes

type summary = {
  cases : int;
  served : int;  (** sessions answered with a verified, identical emit *)
  dropped : int;  (** sessions refused at accept or killed by read loss *)
  typed : int;  (** sessions killed by a typed injected-fault response *)
  failures : (string * string) list;  (** case name, violation *)
}

val pp_summary : Format.formatter -> summary -> unit

(** [campaign ~n ~seed ()] runs [n] random fault cases, three sessions
    each, against fresh servers. Deterministic for a given seed. *)
val campaign :
  ?progress:(int -> unit) -> n:int -> seed:int -> unit -> summary
