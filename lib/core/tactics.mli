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
  t2_joint : bool;
      (** extension beyond the paper: jointly choose the evicted
          successor's displacement bytes to open the patch pun's window,
          instead of the paper's two-step evict-then-reapply (default
          false) *)
  t2_cap : int;
      (** bound on candidate probes in T2's joint pun search *)
  t3_cap : int;
      (** bound on candidate probes across T3's victim enumeration *)
}

val default_options : options

(** The rewriting context shared by all tactics over one binary. *)
type ctx

(** [create_ctx ~text ~text_base ~layout ~sites ~options] — [text] is a
    mutable copy of the text section (mutated in place as patches land);
    [sites] is the full linear disassembly in address order. [obs]
    (default {!E9_obs.Obs.null}) receives one [Attempt] record per tactic
    tried per site — accepted (with padding bytes and evictee distance)
    or rejected with a typed reason — plus a final per-site [Site]
    verdict. The context owns lock and dead-byte maps covering the whole
    text ({!locks}).

    [fault] (default {!E9_fault.Fault.none}) can deterministically refuse
    allocator queries: [Alloc] rules starve the jump tactics (every
    [Layout] query they issue funnels through one guarded choke point),
    [B0_alloc] rules refuse the B0 fallback's own allocation. Injected
    refusals surface as [Obs.Injected] rejects, never as spurious
    [Alloc_conflict]s. *)
val create_ctx :
  ?obs:E9_obs.Obs.t ->
  ?fault:E9_fault.Fault.t ->
  text:E9_bits.Buf.t ->
  text_base:int ->
  layout:Layout.t ->
  sites:Frontend.site array ->
  options:options ->
  unit ->
  ctx

(** [patch ctx site template] tries B1/B2, then (as enabled) T1, T2, T3,
    then the B0 fallback, in the paper's order. Returns the tactic that
    succeeded, if any, after applying its effects. *)
val patch : ctx -> Frontend.site -> Trampoline.template -> Stats.tactic option

(** Individual tactics, exposed for testing and ablation. Each returns the
    trampoline address on success. *)
val try_b1_b2 :
  ctx -> Frontend.site -> Trampoline.template -> (Stats.tactic * int) option

val try_t1 :
  ctx -> Frontend.site -> Trampoline.template -> (Stats.tactic * int) option

val try_t2 :
  ctx -> Frontend.site -> Trampoline.template -> (Stats.tactic * int) option

val try_t3 :
  ctx -> Frontend.site -> Trampoline.template -> (Stats.tactic * int) option

val try_b0 :
  ctx -> Frontend.site -> Trampoline.template -> (Stats.tactic * int) option

(** Results accumulated across {!patch} calls. *)

val trampolines : ctx -> (int * bytes) list
(** [(address, code)] pairs, in emission order. *)

val trap_entries : ctx -> Loadmap.trap list
(** B0 trap-table entries. *)

val locks : ctx -> Lock.t
(** Bytes no later patch may touch. The rewriter pre-locks immutable
    ranges here before the first {!patch}. *)
