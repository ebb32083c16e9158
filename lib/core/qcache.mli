(** An exact LRU cache with hit/miss/eviction accounting — the memoization
    layer under the {!Query} engine.

    Keys are any structurally hashable type. The engine passes flat key
    records (type pair, settings) rather than rendered strings, so two
    distinct queries can never collide the way concatenated strings can
    when an adversarial type name contains the separator. All operations
    are O(1). The counters are cumulative for the lifetime of the cache:
    {!clear} empties the table (counted as an invalidation) but preserves
    the hit/miss history, so a long-running engine's statistics survive
    its reloads. *)

type ('k, 'a) t

type stats = {
  s_hits : int;
  s_misses : int;
  s_evictions : int;  (** entries dropped because the cache was full *)
  s_invalidations : int;  (** times {!clear} was called *)
  s_entries : int;  (** current size *)
  s_capacity : int;
}

val create : ?capacity:int -> unit -> ('k, 'a) t
(** Default capacity 256 entries.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : ('k, 'a) t -> int

val length : ('k, 'a) t -> int

val find : ('k, 'a) t -> 'k -> 'a option
(** Counts a hit or a miss and refreshes the entry's recency on hit. *)

val mem : ('k, 'a) t -> 'k -> bool
(** Pure lookup: no counter or recency effect. *)

val add : ('k, 'a) t -> 'k -> 'a -> unit
(** Insert (or overwrite) as most-recently-used; evicts the
    least-recently-used entry when the cache is at capacity. *)

val find_or_add : ('k, 'a) t -> 'k -> (unit -> 'a) -> 'a
(** [find] then, on miss, compute, [add], and return. *)

val clear : ('k, 'a) t -> unit
(** Drop every entry and count one invalidation. *)

val keys_mru_first : ('k, 'a) t -> 'k list
(** The recency order, most recent first (for tests and debugging). *)

val stats : ('k, 'a) t -> stats

val merge_stats : stats -> stats -> stats
(** Pointwise sum — the daemon's per-worker caches report one combined
    figure. *)

val hit_rate : stats -> float
(** Hits over total lookups; [0.] before any lookup. *)
