(** x86_64 machine-code emission for the {!Insn} subset.

    The encoder picks canonical encodings (short-form [0x83] ALU immediates
    when they fit, REX only when required) so that the synthetic binaries
    have a realistic instruction-length distribution — the quantity the
    punning tactics' success rates depend on. *)

(** [encode insn] is the machine code of [insn]. Raises [Invalid_argument]
    on operand combinations outside the subset (e.g. mem-to-mem moves). *)
val encode : Insn.t -> string

(** [encode_with_prefixes prefixes insn] prepends raw prefix bytes — used by
    the rewriter to build padded (T1) jumps. The prefixes are not checked
    beyond being single bytes. *)
val encode_with_prefixes : int list -> Insn.t -> string

(** [length insn] is [String.length (encode insn)]. *)
val length : Insn.t -> int

