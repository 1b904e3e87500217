(** Growable byte buffers with little-endian accessors.

    All machine-code and ELF emission in this project goes through [Buf].
    Offsets and sizes are plain OCaml [int]s (addresses in this project fit
    comfortably in 62 bits). Reads and writes beyond the current length
    raise [Invalid_argument]. *)

type t

(** [create n] is an empty buffer with initial capacity [n]. *)
val create : int -> t

(** [length b] is the number of valid bytes in [b]. *)
val length : t -> int

(** [of_bytes s] copies [s] into a fresh buffer. *)
val of_bytes : bytes -> t

(** [of_string s] copies [s] into a fresh buffer. *)
val of_string : string -> t

(** [copy b] is a fresh buffer holding a copy of [b]'s valid bytes. *)
val copy : t -> t

(** [contents b] is a copy of the valid bytes of [b]. *)
val contents : t -> bytes

(** [sub b ~pos ~len] copies the given range. *)
val sub : t -> pos:int -> len:int -> bytes

(** [raw b] is the underlying storage, valid in [0, length b). Read-only
    use by zero-copy consumers (the loader, the static verifier); do not
    mutate. *)
val raw : t -> bytes

(** [borrow b ~pos ~len] is [raw b] once the range is checked as {!sub}
    checks it: the range read where it lies. Do not mutate. *)
val borrow : t -> pos:int -> len:int -> bytes

(** [truncate b n] drops the bytes from [n] on ([n <= length b]); the
    storage is kept, and later appends overwrite it. *)
val truncate : t -> int -> unit

(** [blit_in b ~pos s] overwrites bytes of [b] at [pos] with [s]. *)
val blit_in : t -> pos:int -> bytes -> unit

(** [get_u8 b i] reads the unsigned byte at [i]. *)
val get_u8 : t -> int -> int

(** [set_u8 b i v] writes the low 8 bits of [v] at [i]. *)
val set_u8 : t -> int -> int -> unit

(** Little-endian fixed-width reads. [get_i32] sign-extends. *)
val get_u16 : t -> int -> int

val get_u32 : t -> int -> int
val get_i32 : t -> int -> int
val get_u64 : t -> int -> int64

(** Little-endian fixed-width writes (truncating). *)
val set_u16 : t -> int -> int -> unit

val set_u32 : t -> int -> int -> unit
val set_u64 : t -> int -> int64 -> unit

(** Appends; each returns the offset at which the value was placed. *)
val add_u8 : t -> int -> int

val add_u16 : t -> int -> int
val add_u32 : t -> int -> int
val add_u64 : t -> int64 -> int
val add_bytes : t -> bytes -> int
val add_string : t -> string -> int

(** [add_zeros b n] appends [n] zero bytes. *)
val add_zeros : t -> int -> int

(** [pad_to b n] appends zero bytes until [length b >= n]. *)
val pad_to : t -> int -> unit
