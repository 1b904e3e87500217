(** JSON-RPC 2.0 wire format for the rewriting service (DESIGN.md §13).

    The framing is line-delimited: one request — or one batch array — per
    line, one response (or response array) per line back. This module is
    pure syntax: parsing a line into requests, validating the 2.0
    envelope, and encoding responses. It knows nothing about sessions,
    caches or the rewriter; {!Session} interprets the method vocabulary.

    One extension mirrors the real E9Patch protocol: integer parameters
    may arrive as JSON strings holding decimal or [0x]-hex literals
    (["0x40c734"]), because patch addresses routinely exceed what some
    JSON encoders round-trip exactly. *)

module Json = E9_obs.Json

(** A request id. JSON-RPC 2.0 allows numbers, strings and null; anything
    else (fractional numbers included) makes the request invalid. *)
type id = Int_id of int | Str_id of string | Null_id

type request = {
  meth : string;
  params : Json.t;  (** an object; [Obj []] when absent *)
  id : id option;  (** [None] = notification: no response is sent *)
}

(** One entry of a parsed line: either a structurally valid request or a
    per-entry envelope violation (responded to with [invalid_request]
    without aborting the rest of a batch). *)
type incoming = Request of request | Invalid of string

(** One wire line. [Empty_batch] ([[]]) is its own case because the spec
    mandates a single error response rather than an empty array back. *)
type line =
  | Single of incoming
  | Batch of incoming list
  | Empty_batch
  | Unparsable of string  (** not JSON at all: parse error, kill session *)

val parse_line : string -> line

(** {1 Error codes} — the JSON-RPC 2.0 reserved set plus the service's
    application range, one code per typed failure family so clients can
    dispatch without string-matching. *)

val parse_error : int  (** -32700: line is not JSON *)

val invalid_request : int  (** -32600: envelope violation *)

val method_not_found : int  (** -32601 *)

val invalid_params : int  (** -32602 *)


val state_error : int  (** -32000: message legal, but not in this state *)

val malformed_binary : int  (** -32001: [Elf_file.Malformed] *)

val rewrite_refused : int  (** -32002: [Rewriter.Error] / [Frontend.Error] *)

val io_error : int  (** -32003: [Elf_file.Io_error] / [Obs.Sink_error] *)

val spec_error : int  (** -32004: [Patchspec.Parse_error] *)

val verify_failed : int  (** -32005: the oracle rejected the output *)

val injected_fault : int  (** -32006: a fault-injection rule fired *)

(** {1 Parameter accessors} *)

(** [int_param params key] reads an integer parameter, accepting the
    hex-string extension. *)
val int_param : Json.t -> string -> [ `Ok of int | `Missing | `Bad ]

val string_param : Json.t -> string -> [ `Ok of string | `Missing | `Bad ]
val bool_param : Json.t -> string -> [ `Ok of bool | `Missing | `Bad ]

(** {1 Encoding} *)

(** [response id result] is a success envelope, rendered to one line by
    [Json.to_string]. *)
val response : id -> Json.t -> Json.t

(** [error_response id ~code ~message ?data ()] is an error envelope;
    [data], when given, lands under ["error"]["data"]. *)
val error_response : id -> code:int -> message:string -> ?data:Json.t ->
  unit -> Json.t

(** {1 Hex payloads} — binaries travel inline as lowercase hex strings. *)

val hex_of_bytes : bytes -> string

(** [bytes_of_hex s] inverts {!hex_of_bytes}; [Error] names the offending
    position. *)
val bytes_of_hex : string -> (bytes, string) result
