(** FNV-1a 64-bit hashing.

    The 64-bit FNV-1a constants are shared with the RPC cache keys
    (lib/rpc/cache.ml delegates here), so every content hash the
    repository prints comes from the same function family and collides
    only as FNV collides. *)

(** [hash64_string s] hashes a whole string. *)
val hash64_string : string -> int64

(** [to_hex h] prints a hash as 16 lowercase hex digits. *)
val to_hex : int64 -> string

(** [hex ?h b ~pos ~len] prints the FNV-1a hash of [len] bytes of [b]
    starting at [pos], folded into the running state [h] (default: the
    FNV offset basis), as {!to_hex} does. *)
val hex : ?h:int64 -> bytes -> pos:int -> len:int -> string
