(** The query engine: from a [(tin, tout)] pair to a ranked list of code
    snippets (Sections 2 and 3).

    [run] performs the paper's pipeline: locate the [tin] and [tout] nodes,
    enumerate the acyclic paths of cost at most [m + slack], convert them to
    jungloids, deduplicate, rank, generate code. [run_multi] is the
    content-assist form: one search serves every visible variable (and the
    [void] pseudo-source) at once. Both run through one executor, of which
    a [(tin, tout)] query is the one-input case. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy

type t = {
  tin : Jtype.t;  (** may be [Void] for the zero-input query *)
  tout : Jtype.t;
}

val query : string -> string -> t
(** [query "org.x.IFile" "org.y.ASTNode"] — convenience constructor from
    dotted type names; ["void"] gives the zero-input query, a ["[]"] suffix
    an array type. *)

(** Where the rank-ordered candidates come from. Both strategies feed one
    consumer (dedup, verification, protocol filtering, truncation, codegen)
    and differ only in the source: [BestFirst] (the default) pops
    rank-ordered path prefixes from a min-heap ({!Topk}) and stops once the
    top results are certified; [Exhaustive] enumerates every within-budget
    path and sorts it. Below the path cap the answers are byte-identical
    ([test_topk.ml] pins the equivalence; [test/naive.ml]'s pipeline checks
    the shared consumer on its own). [Exhaustive] is the choice for corpus
    tooling that wants the full path set. Configurations with a negative
    [freevar_cost] (ablations) run exhaustively — a negative charge would
    break the best-first order certificate — and report the fallback in
    {!info.warnings}. *)
type strategy =
  | Exhaustive
  | BestFirst

val strategy_to_string : strategy -> string
(** ["exhaustive"] / ["best-first"] — the wire and CLI spelling. *)

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_to_string}; [Error] carries a user-ready message
    listing the accepted spellings. *)

val check_limits : max_results:int -> slack:int -> (unit, string) result
(** [Error] with a user-ready message naming the first negative field.
    Wire requests and CLI flags both go through this before any engine
    work: a negative [max_results] or [slack] is a caller's mistake, never
    a query. *)

(** How results are ordered. [Paper] is Section 3.2's static rule
    (length, crossings, specificity). [Mined] orders by the usage-weighted
    cost learned from the corpus ([Mining.Usage] — −log frequency with
    Laplace smoothing, in {!Elem.cost_scale} fixed-point units), refined by
    the full paper key as the deterministic tiebreak. The candidate set
    (paper-cost budget [m + slack]) is identical under both rankings — only
    the order changes — and [BestFirst] remains byte-identical to
    [Exhaustive] under either. The cost model itself is passed separately
    ([?edge_cost] / the engine's model): settings stay a flat structurally
    comparable record, as the query-cache keys require. [Mined] without a
    model falls back to [Paper] and reports it in {!info.warnings}. *)
type ranking =
  | Paper
  | Mined

val ranking_to_string : ranking -> string
(** ["paper"] / ["mined"] — the wire and CLI spelling. *)

val ranking_of_string : string -> (ranking, string) result
(** Inverse of {!ranking_to_string}; [Error] carries a user-ready message
    listing the accepted spellings. *)

(** Typestate vetting of synthesized chains against a mined protocol model
    ([Mining.Protomine] / [Analysis.Protolint] in practice). [Warn] vets
    the {e emitted} results after selection and reports violations in
    {!info.warnings} — the result list is byte-identical to [Off]. [Filter]
    drops violating chains post-enumeration, per candidate, at exactly the
    positions the [?verify] oracle runs — never inside the search priority
    — so [BestFirst] stays byte-identical to [Exhaustive] under every mode
    ([test_topk.ml] pins this). The checker itself travels separately
    ([?protocol_check] / the engine's checker), keeping settings flat and
    structurally comparable for the cache keys; [Warn]/[Filter] without a
    checker fall back to [Off] with an {!info.warnings} entry. *)
type protocol =
  | Off
  | Warn
  | Filter

val protocol_to_string : protocol -> string
(** ["off"] / ["warn"] / ["filter"] — the wire and CLI spelling. *)

val protocol_of_string : string -> (protocol, string) result
(** Inverse of {!protocol_to_string}; [Error] carries a user-ready message
    listing the accepted spellings. *)

type settings = {
  slack : int;  (** extra path cost beyond the shortest; the paper uses 1 *)
  limit : int;  (** cap on enumerated paths *)
  max_results : int;  (** truncate the ranked list *)
  weights : Rank.weights;
  estimate_freevars : bool;
      (** replace the constant free-variable charge with each type's actual
          shortest production cost from the void node — the estimation the
          paper leaves as future work (default [false]) *)
  strategy : strategy;
  ranking : ranking;
  protocol : protocol;
}

val default_settings : settings
(** [slack = 1], [limit = 4096], [max_results = 10], default weights,
    [strategy = BestFirst], [ranking = Paper], [protocol = Off]. *)

type result = {
  jungloid : Jungloid.t;
  key : Rank.key;
      (** the candidate source's own key — {!Topk}'s incrementally built
          one, or the exhaustive source's {!Rank.key} — taken over, not
          recomputed; either equals {!Rank.key} under the snapshot's cost
          model *)
  code : string;  (** generated Java, input named after [tin] *)
}

(** {2 Verified mode}

    An independent soundness oracle (in practice [Analysis.Verify.sound],
    injected as a closure to keep the analyzer layered above this library)
    re-checks ranked chains in rank order until [max_results] of them
    survive, under either strategy; unsound ones are dropped {e before}
    truncation, so each frees its slot for the next-ranked chain, and
    counted. On a healthy pipeline [vfiltered] stays 0 — the property
    suite enforces this over the curated workload. *)

type verify = {
  vcheck : Jungloid.t -> bool;
  mutable vchecked : int;  (** chains inspected *)
  mutable vfiltered : int;  (** chains rejected as unsound *)
}

val verifier : (Jungloid.t -> bool) -> verify
(** Fresh counters around a soundness predicate. *)

type info = {
  candidates : int;
      (** candidates the search materialized into jungloids: every
          enumerated path under [Exhaustive], only the candidates actually
          needed to certify the top results under [BestFirst] *)
  truncated : bool;
      (** the search stopped at [settings.limit] — the result list may be
          missing better-ranked solutions and callers should say so *)
  warnings : string list;
      (** configuration fallbacks applied to this query — a negative
          [freevar_cost] forcing the exhaustive strategy, [Mined] ranking
          without a loaded usage model reverting to [Paper], or
          [Warn]/[Filter] without a protocol checker reverting to [Off] —
          plus, under [protocol = Warn], one ["protocol: ..."] line per
          violation found on an emitted result. Empty when the query ran
          exactly as configured and nothing was flagged. *)
}

val freeze : ?edge_cost:(Elem.t -> int) -> Graph.t -> Graph.frozen
(** The snapshot a [?graph] call runs on: the [void] pseudo-node is
    interned first (a no-op on graphs from {!Sig_graph.build}, which intern
    it up front), then {!Graph.freeze} bakes [edge_cost] into the weighted
    lanes. Loops over one graph call this once and pass [~frozen]. *)

val run_info :
  ?settings:settings ->
  ?reach:Reach.t ->
  ?frozen:Graph.frozen ->
  ?verify:verify ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  ?graph:Graph.t ->
  hierarchy:Hierarchy.t ->
  t ->
  result list * info
(** {!run} plus the execution report — the CLI's truncation warning and the
    server's [truncated] reply field come from here. *)

val run :
  ?settings:settings ->
  ?reach:Reach.t ->
  ?frozen:Graph.frozen ->
  ?verify:verify ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  ?graph:Graph.t ->
  hierarchy:Hierarchy.t ->
  t ->
  result list
(** Ranked solution jungloids; [[]] when [tin] or [tout] has no node or no
    path exists. The whole pipeline (type lookup, 0-1 BFS, path search,
    jungloid conversion) runs on a CSR snapshot: [?frozen], or, as a
    shorthand, [?graph] frozen once for this call ({!freeze}, with the
    usage model baked only when the effective ranking is [Mined]). One of
    the two is required ([Invalid_argument] when both are missing;
    [?frozen] wins when both are given); loops over one graph should freeze
    once and pass [~frozen]. A query never reads the mutable graph, which is
    the lock-free server read path; the snapshot is trusted, and results
    describe whatever graph it captured. Distances land in recycled
    per-domain epoch-stamped scratch lanes, so at steady state a query
    allocates nothing proportional to the graph.

    When [?reach] is a {!Reach} index for the snapshot's generation, a
    query whose [tin] cannot reach [tout] is answered [[]] in O(1), without
    a search; every other query runs exactly as without the index, so the
    result list is the same either way. A stale index is ignored, never
    misapplied. [?verify] filters unsound chains (see
    {!verify}); the cached entry points below never take it, so cached and
    verified results cannot mix.

    [?edge_cost] is the mined usage model ([Mining.Usage.edge_cost]),
    consulted only when [settings.ranking = Mined]. It must be
    non-negative, and when combined with [?frozen] the snapshot must have
    been taken with [Graph.freeze ~wcost] under the {e same} model — the
    weighted best-first search reads the snapshot's baked cost arrays.
    Engine snapshots maintain this invariant automatically.

    [?protocol_check] returns the protocol violations of a chain
    ([Analysis.Protolint.violations] against a mined model in practice; []
    means clean), consulted only when [settings.protocol] is [Warn] or
    [Filter] (see {!protocol}). *)

type multi_result = {
  source_var : string option;  (** [None] for the [void] source *)
  result : result;
}

type cluster = {
  representative : result;  (** the best-ranked member *)
  members : int;
  type_path : string;  (** e.g. ["IWorkspace > IWorkspaceRoot > IFile"] *)
}

val cluster : result list -> cluster list
(** Group results by the sequence of types their chains pass through
    (ignoring which member produced each step) and keep one representative
    per group — the "clusters of similar jungloids" presentation the paper
    proposes as future work for crowded queries like (IWorkspace, IFile).
    Order follows the best member of each cluster. *)

val run_multi :
  ?settings:settings ->
  ?reach:Reach.t ->
  ?frozen:Graph.frozen ->
  ?verify:verify ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  ?graph:Graph.t ->
  hierarchy:Hierarchy.t ->
  vars:(string * Jtype.t) list ->
  tout:Jtype.t ->
  unit ->
  multi_result list
(** One multi-source search from all [vars] plus [void]; each result's code
    references the variable it starts from. The ranked order interleaves all
    sources, each under its own budget (its shortest cost plus slack), and
    a variable whose type has no node, or that the reach index proves
    cannot reach [tout], simply takes no part. [?reach], [?frozen] and
    [?graph] behave exactly as in {!run} (a snapshot without an interned
    [void] node simply omits the [void] source; {!freeze} and engine
    snapshots always intern it first). Suggestions that tie on the full
    rank key are ordered by variable name ([void] first) and, within one
    variable, keep enumeration order; both strategies share the consumer
    that does this, so they agree byte for byte below the path cap.
    Within one variable, only the best-ranked of several identically
    rendered chains is kept. There is no info channel here, so
    [protocol = Warn] violations are logged rather than returned; [Filter]
    drops violating suggestions as in {!run}. *)

(** {2 The query engine}

    A long-lived handle bundling one frozen CSR snapshot, its hierarchy, an
    LRU result cache per query shape (single-source and multi-source), and
    a {!Reach} index built lazily from that snapshot. The model an engine
    answers over changes only through {!engine_reload}, which swaps the
    snapshot and clears both caches; mutating the graph an engine was built
    from changes nothing the engine sees. Cache keys are
    [(tin, tout, settings)] (plus the visible variables for the
    multi-source shape), so cached results are always exactly what the
    uncached pipeline returns on {!engine_frozen}
    ([test_cache.ml] checks the equivalence over the full Table 1 workload,
    [test_reload.ml] across random reload sequences). *)

type engine

val engine :
  ?cache_capacity:int ->
  ?prune:bool ->
  ?pool:Prospector_parallel.Pool.t ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  graph:Graph.t ->
  hierarchy:Hierarchy.t ->
  unit ->
  engine
(** [cache_capacity] (default 256) sizes each of the two internal LRU
    caches. [prune:false] turns the reach index off: no unsolvable query is
    rejected before its search, and {!run_batch} plans no shards (the
    bench uses this to measure the rejection in isolation); answers are
    the same either way. The index is built from the engine's own snapshot
    on first use. [?pool] (default sequential) is used by {!run_batch} and
    by the reach-index build; it changes wall-clock only, never results.
    The engine freezes [graph] once ({!freeze}), keeps only that snapshot,
    and runs every search on its flat arrays; later mutations of [graph]
    do not reach it — build a new engine, or {!engine_reload} a {!Delta}
    patch, to change the model.

    [?edge_cost] installs the mined usage model ({!Mining.Usage.edge_cost}
    in practice) for queries with [settings.ranking = Mined]; the engine's
    snapshot bakes this model into its weighted-cost arrays, so weighted
    search and the rank layer always agree. Without
    it, [Mined] requests fall back to [Paper] with an {!info.warnings}
    entry.

    [?protocol_check] installs the mined typestate checker
    ({!run}'s [?protocol_check]) for queries with [settings.protocol]
    of [Warn] or [Filter]; cached entry points apply it automatically,
    and [settings.protocol] is part of every cache key, so [Filter]ed
    and unfiltered results never mix. *)

val engine_of_frozen :
  ?cache_capacity:int ->
  ?prune:bool ->
  ?reach:Reach.t ->
  ?pool:Prospector_parallel.Pool.t ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  frozen:Graph.frozen ->
  hierarchy:Hierarchy.t ->
  unit ->
  engine
(** An engine over an existing CSR snapshot — the mmap warm-start path: a
    server restart hands {!Serialize.load_frozen}'s (possibly mmapped)
    snapshot straight here and starts answering queries without rebuilding
    anything but the reach index, which it builds from this snapshot on
    first use ({!Reach.build_frozen}; about 18 ms at 100k methods). {!engine}
    ends in the same constructor, after freezing. [?reach] hands over an
    index the caller already built from [frozen]; one whose
    {!Reach.generation} does not match the snapshot is dropped and rebuilt
    lazily, so a stale seed costs time, never correctness. With
    [?edge_cost] the snapshot's weighted-cost arrays are re-baked under
    the model ({!Graph.rebake}) so weighted search and the rank layer
    agree, as in {!engine}. All other parameters behave as in {!engine}. *)

val engine_hierarchy : engine -> Javamodel.Hierarchy.t

val engine_edge_cost : engine -> (Elem.t -> int) option
(** The usage model installed at engine creation, if any. Lock-free readers
    that run on {!engine_frozen} snapshots pass this as their [?edge_cost]:
    the snapshot's baked weighted costs and the rank layer's model are then
    the same by construction. *)

val engine_protocol_check : engine -> (Jungloid.t -> string list) option
(** The typestate checker installed at engine creation, if any — the
    [?protocol_check] counterpart of {!engine_edge_cost} for lock-free
    snapshot readers. *)

val engine_frozen : engine -> Graph.frozen
(** The engine's CSR snapshot: the one it was built with, or the last
    {!engine_reload}ed one. The server publishes this snapshot for its
    lock-free readers. *)

val engine_reach : engine -> Reach.t option
(** The engine's reachability index for {!engine_frozen}, building it on
    first use; [None] when the engine was created with [prune:false].
    Exposed so a server's lock-free readers can pass it as {!run}'s
    [?reach] alongside the snapshot it indexes. *)

val engine_shards : engine -> Shard.t option
(** The engine's package-cone shard plan for the current snapshot, planned
    on first use (shard contents stay lazy inside the plan); [None] when
    sharding is unavailable — no reach index ([prune:false]), or too few
    packages. {!run_batch} routes through this; it is exposed for the
    scale bench's shard statistics. *)

val run_cached : ?settings:settings -> engine -> t -> result list
(** {!run} through the cache: a hit costs one hash lookup; a miss runs the
    pipeline with the engine's reach index and stores the result. *)

val run_batch :
  ?settings:settings ->
  ?pool:Prospector_parallel.Pool.t ->
  engine ->
  t list ->
  (t * result list) list
(** Answer many queries through one engine — the reach index is built once
    and every repeated [(tin, tout)] pair after the first is a cache hit.
    Results are in input order, duplicates included.

    With a [?pool] (default: the engine's) of more than one job, cache
    misses are computed concurrently over the engine's snapshot and then
    replayed through the cache in input order. The replay performs the same
    [find]/[add] sequence the sequential path performs, so the output {e
    and} the cache state afterwards (hits, misses, evictions, recency) are
    byte-identical to [jobs = 1] — parallelism is observable only as
    wall-clock.

    Misses are additionally routed through the engine's package-cone shard
    plan ({!engine_shards}): a query whose target type has a package runs
    on the target's package-group sub-snapshot, which contains the whole
    reachability cone of the target by construction, so results stay
    byte-identical to the [jobs = 1] oracle ([test_scale.ml] pins this on
    generated worlds). Packageless targets, oversized shards, and
    [settings.estimate_freevars] runs fall back to the full snapshot. *)

val run_multi_cached :
  ?settings:settings ->
  engine ->
  vars:(string * Jtype.t) list ->
  tout:Jtype.t ->
  unit ->
  multi_result list
(** {!run_multi} through the cache, keyed additionally on the visible
    variables — the content-assist hot path: re-opening assist at the same
    program point is a hit. *)

val engine_reload :
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  engine ->
  Delta.patch ->
  unit
(** Swap a {!Delta.apply} patch into a live engine — the one way an
    engine's model changes. The CSR snapshot and hierarchy are replaced,
    the reach index of a [Spliced] patch is maintained incrementally
    ({!Reach.patch} — only components downstream of a touched node are
    re-closed; a [Rebuilt] patch's is rebuilt on next use), and both caches
    are cleared (one invalidation each in {!engine_stats}). [edge_cost] /
    [protocol_check], when given, install a re-derived mined model, and
    the snapshot's weighted lanes are re-baked under it. Subsequent queries
    answer over the patched model. *)

val engine_stats : engine -> Qcache.stats
(** Combined hit/miss/eviction/invalidation counters of both internal
    caches; render with {!Stats.pp_cache}. *)
