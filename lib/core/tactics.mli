(** The patching tactics (paper §2.1, §3): B0 signal handlers, B1 direct
    jumps, B2 instruction punning, T1 padded jumps, T2 successor eviction,
    T3 neighbour eviction.

    Each tactic attempts to divert one patch-location instruction to a
    freshly emitted trampoline without moving any other instruction and
    without invalidating any possible jump target. Tactics mutate the
    shared rewriting context (text bytes, lock state, address-space
    reservations, trampoline list) only when they succeed. *)

type options = {
  enable_base : bool;
      (** disable to force the escalation tactics (demos, ablation) *)
  enable_t1 : bool;
  enable_t2 : bool;
  enable_t3 : bool;
  b0_fallback : bool;
      (** when every jump-based tactic fails, fall back to an [int3] trap
          (paper §5.2: "using B0 as a fallback may be appropriate") *)
}

val default_options : options

(** The rewriting context shared by all tactics over one binary. *)
type ctx

(** [create_ctx ~text ~text_base ~layout ~index ~options] — [text] is
    the buffer being patched (in place, as patches land) and [text_base]
    the address of its byte 0: the output image's data, or a copy of the
    text alone. [index] is the original text's {!Frontend.index}, which
    must not read [text], and its text is the one patched. T2's successor and
    T3's victims are the starts it records, decoded from the original
    bytes when a tactic reads them ({!Frontend.decode_at}). Its lengths
    must therefore match the decoder's; a neighbour whose length does
    not raises {!Frontend.Error} from {!patch}, naming its address.
    [sites], the full disassembly, may be given instead of [index]: the
    index is then built from it over a copy of [text] as it is at the call
    ([index] wins when both are given; [Invalid_argument] without
    either). [obs]
    (default {!E9_obs.Obs.null}) receives one [Attempt] record per tactic
    tried per site — accepted (with padding bytes and evictee distance)
    or rejected with a typed reason — plus a final per-site [Site]
    verdict. The context owns lock and dead-byte maps covering the whole
    text ({!locks}).

    [fault] (default {!E9_fault.Fault.none}) can deterministically refuse
    allocator queries: [Alloc] rules starve the jump tactics (every
    [Layout] query they issue runs through one guarded query, which
    checks the rule before the allocator sees the query), [B0_alloc]
    rules refuse the B0 fallback's own allocation. Each rejected
    [Attempt]'s reason comes from that tactic's own queries only: an
    injected refusal reads [Obs.Injected], and an allocator
    {!Layout.denial} reads [Obs.Dead_window] or [Obs.Alloc_conflict]
    (DESIGN.md §12.2). *)
val create_ctx :
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  text:E9_bits.Buf.t ->
  text_base:int ->
  layout:Layout.t ->
  ?index:Frontend.index ->
  ?sites:Frontend.site array ->
  options:options ->
  unit ->
  ctx

(** [patch ctx site template] tries B1/B2, then (as enabled) T1, T2, T3,
    then the B0 fallback, in the paper's order. Returns the tactic that
    succeeded, if any, after applying its effects. Before the ladder
    runs, the site gets one plan: the template's
    {!Trampoline.references}, the widest window they leave (B0's) and
    the trampoline's {!Trampoline.size}, taken once inside that window.
    A site that is not {!Trampoline.displaceable} gets no plan and no
    attempt, B0's included; a site whose window is empty is rejected
    with [range] by every enabled tactic. Either way it fails alone:
    the rewrite goes on. *)
val patch : ctx -> Frontend.site -> Trampoline.template -> Stats.tactic option

(** Results accumulated across {!patch} calls. *)

val trampolines : ctx -> (int * bytes) list
(** [(address, code)] pairs, in emission order. *)

val trap_entries : ctx -> Loadmap.trap list
(** B0 trap-table entries. *)

val locks : ctx -> Lock.t
(** Bytes no later patch may touch. The rewriter pre-locks immutable
    ranges here before the first {!patch}. *)
