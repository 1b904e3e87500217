(** The one content-addressed store (DESIGN.md §13): a bounded,
    mutex-guarded LRU with generation flush, shared by sessions on any
    domain. It backs the daemon's decode, result and raw tiers; this
    module does no I/O. Keys derive from content only, never from file
    names or session identity, so a hit is byte-identical to recomputing
    by construction.

    [flush] bumps a generation stamped into every entry; stale entries
    are treated as misses and dropped lazily on the next lookup, so a
    flush is O(1) and never pauses in-flight sessions. *)

type 'a t

(** [create ?capacity ()] — [capacity] bounds live entries (default 64);
    inserting past it evicts the least recently used entry. *)
val create : ?capacity:int -> unit -> 'a t

(** [find t key] — [Some v] on hit; counts hit/miss. A stale-generation
    entry is dropped and reported as a miss. *)
val find : 'a t -> string -> 'a option

(** [add t key v] stamps [v] with the current generation. Re-adding an
    existing key replaces the entry. *)
val add : 'a t -> string -> 'a -> unit

(** [flush t] bumps the generation: every current entry becomes stale.
    Returns the new generation. *)
val flush : 'a t -> int

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** live (current-generation) entries *)
  insertions : int;
  evictions : int;  (** LRU evictions + lazy stale drops *)
  generation : int;
}

val stats : 'a t -> stats

(** Hits over lookups; 0 when nothing was looked up. *)
val hit_rate : stats -> float

val stats_json : stats -> E9_obs.Json.t

(** {1 Hashing} — FNV-1a 64-bit, rendered as 16 hex digits. Not
    cryptographic: keys come from trusted local content, and a collision
    costs a wrong cache hit on adversarially crafted twins, which the
    mandatory post-rewrite verification then rejects. *)

val fnv1a64 : bytes -> string

val fnv1a64_string : string -> string
