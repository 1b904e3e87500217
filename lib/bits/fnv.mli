(** FNV-1a 64-bit hashing, plus the rolling variant used by the
    content-defined chunker.

    The 64-bit FNV-1a constants are shared with the RPC cache keys
    (lib/core/cache.ml delegates here) so a chunk hash printed in a plan
    key and a binary hash printed in a result key come from the same
    function family and collide only as FNV collides. *)

val offset_basis : int64
val prime : int64

(** [hash64 ?h b ~pos ~len] folds [len] bytes of [b] starting at [pos]
    into the running FNV-1a state [h] (default: [offset_basis]). *)
val hash64 : ?h:int64 -> bytes -> pos:int -> len:int -> int64

(** [hash64_string s] hashes a whole string. *)
val hash64_string : string -> int64

(** [to_hex h] prints a hash as 16 lowercase hex digits. *)
val to_hex : int64 -> string

(** [hex ?h b ~pos ~len] = [to_hex (hash64 ?h b ~pos ~len)]. *)
val hex : ?h:int64 -> bytes -> pos:int -> len:int -> string

(** Rolling hash over a fixed-size byte window, for content-defined
    boundary detection.  Not FNV (FNV cannot roll); a degree-[window]
    polynomial hash with power-of-two-friendly mixing.  Deterministic
    and position-independent: the value depends only on the last
    [window] bytes fed in. *)
module Rolling : sig
  type t

  val window : int
  (** Window width in bytes (compile-time constant). *)

  val create : unit -> t

  val reset : t -> unit

  (** [feed t byte] slides the window one byte; O(1). *)
  val feed : t -> int -> unit

  (** Current window digest. Only meaningful once [window] bytes have
      been fed since [create]/[reset]; callers guarantee that by
      construction (chunk minimum size exceeds the window). *)
  val digest : t -> int
end
