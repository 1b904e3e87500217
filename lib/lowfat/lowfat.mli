(** Low-fat pointers (Duck & Yap, CC'16), as used by the paper's binary
    heap-write hardening application (§6.3).

    A low-fat allocator places objects in per-size-class regions so that an
    object's bounds can be recomputed from the {e bit pattern of the
    pointer itself}: [base p] rounds [p] down to its slot boundary within
    its region. The hardening instrumentation enforces the redzone
    property [p - base p >= redzone] on every heap write: each slot's first
    [redzone] bytes are never legally written, so a write that runs off the
    end of one object lands in the next slot's redzone and is caught.

    This module plays the role of the [LD_PRELOAD]ed [liblowfat.so]
    runtime: same allocation sites (the emulator's [malloc]/[free] host
    calls), same check, host-side implementation. Pointers outside the
    low-fat regions ("legacy" pointers — stack, globals) pass the check
    unconditionally, as in the original system. *)

(** Size of the per-object redzone, in bytes (the paper uses 16). *)
val redzone : int

(** Size classes are powers of two from 16 bytes to [max_size]. *)
val max_size : int

(** Each size class owns one region of [region_size] bytes; the regions
    lie back to back from [0x4000_0000_0000]. *)
val region_size : int

(** [is_lowfat p] — does [p] point into a low-fat region? *)
val is_lowfat : int -> bool

(** [base p] is the slot base of a low-fat pointer ([p] itself otherwise).
    A pure function of the pointer — no metadata lookup. *)
val base : int -> int

(** [slot_size p] is the size class of [p]'s region, if low-fat. *)
val slot_size : int -> int option

(** [check p] — the redzone property [p - base p >= redzone], true for
    legacy pointers. *)
val check : int -> bool

(** The allocator state (per emulated machine). *)
type t

val create : E9_vm.Space.t -> t

(** The request cannot be served: oversize, or the size class's region is
    exhausted. The allocator state is unchanged — harnesses catch this to
    skip-and-report rather than abort a whole campaign. *)
exception Error of string

(** [malloc t n] returns a pointer to [n] usable bytes placed at
    [slot + redzone] in the smallest fitting size class. Freed slots are
    recycled per class. Raises {!Error} (leaving the allocator
    untouched) when [n] exceeds the maximum size class or the class
    region is exhausted. *)
val malloc : t -> int -> int

val free : t -> int -> unit

(** [make_allocator space] is a fresh allocator over [space] packaged as
    the emulator allocator, with [check] wired to the redzone property —
    drop-in for [E9_emu.Machine.run ~make_allocator]. *)
val make_allocator : E9_vm.Space.t -> E9_emu.Cpu.allocator
