(** Byte lock state for strategy S1 (paper §3.4).

    A byte of the text section becomes locked when a tactic either
    overwrites it ({e Modified}) or relies on its value as part of a punned
    displacement ({e Punned}). Locked bytes may never be modified by a
    later tactic; punning a locked byte again is fine (its value is final).
    Patching proceeds from highest to lowest address so locks only ever
    constrain bytes at or after the current patch location. *)

type t

(** [create ~base ~len] — all bytes of [base, base+len) start unlocked. *)
val create : base:int -> len:int -> t

(** [lock t addr] marks one byte locked (idempotent). Out-of-range
    addresses are ignored: puns may read beyond the text section. *)
val lock : t -> int -> unit

val lock_range : t -> addr:int -> len:int -> unit

(** [locked t addr] — bytes outside the tracked range report unlocked. *)
val locked : t -> int -> bool

(** [all_unlocked t ~addr ~len] — true when no byte of the range is
    locked. *)
val all_unlocked : t -> addr:int -> len:int -> bool

(** [locked_count t] — number of locked bytes (for statistics). *)
val locked_count : t -> int
