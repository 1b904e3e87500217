(** FNV-1a 64-bit hashing.

    The 64-bit FNV-1a constants are shared with the RPC cache keys
    (lib/rpc/cache.ml delegates here), so every content hash the
    repository prints comes from the same function family and collides
    only as FNV collides. *)

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
