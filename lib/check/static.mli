(** Independent static verification of a rewritten binary.

    Given only the original and the rewritten {!Elf_file.t}, [verify]
    re-derives the §2 rewriting contract from the bytes alone — it never
    consults the rewriter's [patched_sites] bookkeeping:

    - it diffs the text and classifies every changed byte by decoding
      forward from each change: a patch jump, a punned jump's overhang, a
      T2 evictee rewrite, a T3 victim rewrite, a T3 short jump, or a B0
      trap;
    - it follows every punned [jmp rel32] to its trampoline, checks the
      trampoline lies inside the reserved virtual-address region (mapped by
      the metadata table or by the injected loader stub) and collides with
      no [PT_LOAD] page of the original image;
    - it decodes each trampoline and verifies its terminal transfer returns
      control to the correct continuation address for the instruction that
      was displaced from the served patch site;
    - any changed byte it cannot account for is a verification failure.

    The verifier understands both loader modes: the host-side mapping
    table ([.e9patch.mmap]) and the injected stub (entry point redirected
    into a segment at {!E9_core.Loader_stub.home}), whose mapping table it
    recovers by decoding the stub's own code. *)

(** What a changed (or diversion-covered) byte turned out to be. *)
type byte_class =
  | Patch_jump  (** a (possibly prefixed) [jmp rel32] at a patched site *)
  | Pun_overhang
      (** diversion bytes beyond the original instruction's length *)
  | T2_evictee
      (** a boundary jump whose bytes an earlier diversion puns over *)
  | T3_victim  (** a jump written into (or punned over) a T3 victim *)
  | Short_jump  (** the 2-byte [jmp rel8] at a T3 patch site *)
  | Trap  (** a B0 [int3] *)

val class_name : byte_class -> string

(** The prefixes a diversion's [jmp rel32] may carry: the T1 padding,
    inert on a near jump. *)
val pad_set : int list

(** [can_start_jump b] is whether a padded [jmp rel32] can begin with
    byte [b]: [b] is its opcode [0xe9] or in {!pad_set}. The verifier
    decodes a candidate diversion start only where this holds. *)
val can_start_jump : int -> bool

type report = {
  changed_bytes : int;  (** text bytes that differ from the original *)
  diversions : int;  (** [jmp rel32] diversions discovered and followed *)
  short_jumps : int;
  traps : int;
  trampolines_checked : int;
  classified : (int * byte_class) list;
      (** every changed byte, ascending by address *)
}

type error = { addr : int; reason : string }

val pp_report : Format.formatter -> report -> unit
val pp_error : Format.formatter -> error -> unit

(** [verify ?holes ?index ~original rewritten] re-derives and checks
    the rewriting contract. Its boundary map is the linear sweep of
    [original]'s text ({!Frontend.linear_sweep}): [index] when given —
    the rewrite's own [result.index], so the text is not swept again —
    else a sweep under [holes]. The holes are the data extents inside
    the text the rewrite used (see {!Frontend.index_fold}): a leading
    pool ({!Frontend.leading_hole}, the ChromeMain workaround), interior
    islands; an [index] carries its own. The sweep skips them, so the
    boundary map matches the one the rewriting used instead of growing
    phantoms inside them; and since the rewriter never patches data, a
    changed byte or a trap entry inside any hole is rejected. A served
    site alone is decoded again, to check its trampoline. Raises
    [Invalid_argument] when [index] is not the linear sweep of
    [original]'s text (under [holes], when given).

    Cost: linear in the text. A candidate diversion start is decoded
    only where {!can_start_jump} holds of its byte; a trampoline
    instruction costs one mapping lookup and is decoded in place, from
    a padded copy only within 16 bytes of its mapping's end; each
    diversion's kind is decided once, and each changed byte is then
    classified by a probe over at most the longest diversion's length
    of starts below it. *)
val verify :
  ?holes:(int * int) list ->
  ?index:Frontend.index ->
  original:Elf_file.t ->
  Elf_file.t ->
  (report, error) result
