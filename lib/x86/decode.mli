(** x86_64 machine-code decoding for the {!Insn} subset.

    The decoder is total: any byte sequence decodes, with bytes outside the
    subset yielding a one-byte {!Insn.Unknown} — matching the behaviour of a
    linear-disassembly frontend that simply skips what it cannot parse.
    Prefix bytes (legacy and REX, in any order) are consumed and reported so
    that padded (T1) jumps round-trip. *)

type decoded = {
  insn : Insn.t;
  len : int;  (** total length including prefixes *)
  prefixes : int list;  (** consumed prefix bytes, in order *)
}

(** [decode ?limit bytes pos] decodes the instruction starting at [pos],
    reading no byte at or past [limit] (default and at most
    [Bytes.length bytes]): the decode of a copy of [bytes] truncated at
    [limit]. Raises [Invalid_argument] when [pos] is negative or not
    below the limit; an instruction the limit truncates decodes as
    [Unknown]. *)
val decode : ?limit:int -> Bytes.t -> int -> decoded
