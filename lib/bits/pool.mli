(** Domain-parallel map over independent tasks.

    The bench harness fans independent (app × tactic-config)
    rewrite+emulate runs across cores with this. Tasks must be
    self-contained — no shared mutable state — which every bench task
    satisfies: each builds its own [Elf_file], [Space] and CPU state.

    Results are returned in input order whatever the completion order, so
    a caller that computes in parallel and prints sequentially produces
    output byte-identical to a serial run (DESIGN.md §7). *)

(** [default_domains ()] is the domain count used when [?domains] is not
    given: [Domain.recommended_domain_count ()]. *)
val default_domains : unit -> int

(** [map ?domains f xs] is [List.map f xs], computed by up to [domains]
    domains (never more than [List.length xs]; with 1 domain it runs
    serially in the calling domain). If tasks raise, the exception at the
    lowest input index is re-raised with its backtrace.

    A helper domain that cannot be spawned — the runtime refusing
    ([Domain.spawn] raising), or [spawn_failure i] returning [true] for
    helper [i] (fault injection) — only shrinks the worker pool: the
    shared work cursor means the remaining workers, at minimum the
    calling domain, still run every task, so results are complete and
    identical either way. *)
val map :
  ?domains:int -> ?spawn_failure:(int -> bool) -> ('a -> 'b) -> 'a list ->
  'b list

(** A persistent worker pool for open-ended task streams.

    {!map} fans a fixed task list and joins; a daemon has an
    open-ended stream (sessions arrive over time), so it needs
    long-lived workers draining a queue (DESIGN.md §13). Containment
    matches {!map}'s discipline, strengthened for daemon use: a task
    exception is {e swallowed and counted} ({!Service.trapped}), never
    propagated — one crashed session must not take the daemon or its
    sibling sessions down. *)
module Service : sig
  type t

  (** [create ?domains ()] spawns up to [domains] worker domains
      (default {!default_domains}, capped at
      [Domain.recommended_domain_count ()]). A worker that cannot be
      spawned only shrinks the pool; with zero workers, {!submit} runs
      tasks inline in the caller, so the pool degrades to serial service
      rather than deadlock. *)
  val create : ?domains:int -> unit -> t

  (** [submit t task] enqueues [task] for the next free worker. Raises
      [Invalid_argument] after {!shutdown}. *)
  val submit : t -> (unit -> unit) -> unit

  (** [drain t] blocks until the queue is empty and no task is
      executing. *)
  val drain : t -> unit

  (** [shutdown t] drains, then stops and joins every worker. The pool
      cannot be reused. *)
  val shutdown : t -> unit

  (** Tasks completed (including trapped ones). *)
  val executed : t -> int

  (** Task exceptions contained by the pool. *)
  val trapped : t -> int
end
