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
    consumer (dedup, truncation, codegen) and differ only in the source:
    [BestFirst] (the default) pops rank-ordered path prefixes from a
    min-heap ({!Topk}) and stops once the top results are certified;
    [Exhaustive] enumerates every within-budget path and sorts it. Below
    the path cap the answers are byte-identical
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

val check_type_name : what:string -> string -> (unit, string) result
(** [Error] with a user-ready message, ["WHAT must name a type (got ...)"],
    when the name is empty after trimming — a name no type can have. The
    wire decoder checks every type-name field with it and the CLI its
    positional type arguments, so a blank name is a caller's mistake,
    never an internal error. Non-blank malformed names (["a..b"]) pass:
    they resolve to no node and answer with no jungloids. *)

(** Results are ordered by Section 3.2's static rule ({!Rank}: length,
    package crossings, output generality), the only ranking. *)
type settings = {
  slack : int;
      (** extra path cost beyond the shortest; the paper uses 1. A budget
          past [max_int] saturates ({!Search.budget}): no bound. *)
  limit : int;  (** cap on enumerated paths *)
  max_results : int;  (** truncate the ranked list *)
  weights : Rank.weights;
  estimate_freevars : bool;
      (** replace the constant free-variable charge with each type's actual
          shortest production cost from the void node — the estimation the
          paper leaves as future work (default [false]) *)
  strategy : strategy;
}

val default_settings : settings
(** [slack = 1], [limit = 4096], [max_results = 10], default weights,
    [strategy = BestFirst]. *)

type result = {
  jungloid : Jungloid.t;
  key : Rank.key;
      (** the candidate source's own key — {!Topk}'s incrementally built
          one, or the exhaustive source's {!Rank.key} — taken over, not
          recomputed; either equals {!Rank.key} *)
  code : string;  (** generated Java, input named after [tin] *)
}

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
          [freevar_cost] forcing the exhaustive strategy. Empty when the
          query ran exactly as configured. *)
}

val freeze : Graph.t -> Graph.frozen
(** The query-time snapshot of a builder graph: the [void] pseudo-node is
    interned first (a no-op on graphs from {!Sig_graph.build}, which intern
    it up front), then {!Graph.freeze}. Beside {!engine}, the one place a
    builder graph becomes a snapshot: freeze once per model and pass
    [~frozen] to every query. *)

val run_info :
  ?settings:settings ->
  ?reach:Reach.t ->
  frozen:Graph.frozen ->
  hierarchy:Hierarchy.t ->
  t ->
  result list * info
(** {!run} plus the execution report — the CLI's truncation warning and the
    server's [truncated] reply field come from here. *)

val run :
  ?settings:settings ->
  ?reach:Reach.t ->
  frozen:Graph.frozen ->
  hierarchy:Hierarchy.t ->
  t ->
  result list
(** Ranked solution jungloids; [[]] when [tin] or [tout] has no node or no
    path exists. The whole pipeline (type lookup, 0-1 BFS, path search,
    jungloid conversion) runs on the CSR snapshot [frozen] ({!freeze}, or
    an engine's {!engine_frozen}). A query never reads the mutable graph,
    which is the lock-free server read path; the snapshot is trusted, and
    results describe whatever graph it captured. Distances land in
    recycled per-domain epoch-stamped scratch lanes, so at steady state a
    query allocates nothing proportional to the graph.

    When [?reach] is a {!Reach} index for the snapshot's generation, a
    query whose [tin] cannot reach [tout] is answered [[]] in O(1), without
    a search; every other query runs exactly as without the index, so the
    result list is the same either way. A stale index is ignored, never
    misapplied.

    No query vets its answers against the mined call-order model: the
    daemon's [lint] op and [lint --pass query] report those findings
    ([Analysis.Verify.findings]). *)

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
  frozen:Graph.frozen ->
  hierarchy:Hierarchy.t ->
  vars:(string * Jtype.t) list ->
  tout:Jtype.t ->
  unit ->
  multi_result list
(** One multi-source search from all [vars] plus [void]; each result's code
    references the variable it starts from. The ranked order interleaves all
    sources, each under its own budget (its shortest cost plus slack), and
    a variable whose type has no node, or that the reach index proves
    cannot reach [tout], simply takes no part. [?reach] and [frozen]
    behave exactly as in {!run} (a snapshot without an interned [void]
    node simply omits the [void] source; {!freeze} and engine snapshots
    always intern it first). Suggestions that tie on the full
    rank key are ordered by variable name ([void] first) and, within one
    variable, keep enumeration order; both strategies share the consumer
    that does this, so they agree byte for byte below the path cap.
    Within one variable, only the best-ranked of several identically
    rendered chains is kept. *)

(** {2 The query engine}

    A long-lived handle bundling one frozen CSR snapshot, its hierarchy, an
    LRU result cache for {!run_batch}, and a {!Reach} index built lazily
    from that snapshot. The model an engine answers over changes only
    through {!engine_reload}, which swaps the snapshot and clears the
    cache; mutating the graph an engine was built from changes nothing the
    engine sees. Cache keys are [(tin, tout, settings)], so cached results
    are always exactly what the uncached pipeline returns on
    {!engine_frozen} ([test_cache.ml] checks the equivalence over the full
    Table 1 workload, [test_reload.ml] across random reload sequences).
    Content assist has no engine entry point: a multi-source search runs
    {!run_multi} on {!engine_frozen} with {!engine_reach}, as the server's
    readers do. *)

type engine

val engine :
  ?cache_capacity:int ->
  ?pool:Prospector_parallel.Pool.t ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  graph:Graph.t ->
  hierarchy:Hierarchy.t ->
  unit ->
  engine
(** [cache_capacity] (default 256) sizes the LRU result cache. The reach
    index is built from the engine's own snapshot on first use. [?pool]
    (default sequential) is used by {!run_batch} and by the reach-index
    build; it changes wall-clock only, never results.
    The engine freezes [graph] once ({!freeze}), keeps only that snapshot,
    and runs every search on its flat arrays; later mutations of [graph]
    do not reach it — build a new engine, or {!engine_reload} a {!Delta}
    patch, to change the model.

    [?edge_cost] and [?protocol_check] are ignored; the parameters stay
    only because [perfbench/model.ml] still passes them, and go with those
    calls. *)

val engine_of_frozen :
  ?cache_capacity:int ->
  ?reach:Reach.t ->
  ?pool:Prospector_parallel.Pool.t ->
  frozen:Graph.frozen ->
  hierarchy:Hierarchy.t ->
  unit ->
  engine
(** An engine over a CSR snapshot the caller already froze: benchmarks
    and tests that freeze once and build several engines over the result
    start here. The reach index is built from this snapshot on first use
    ({!Reach.build_frozen}; about 18 ms at 100k methods). {!engine} ends in
    the same constructor, after freezing. [?reach] hands over an index the
    caller already built from [frozen]; one whose {!Reach.generation} does
    not match the snapshot is dropped and rebuilt lazily, so a stale seed
    costs time, never correctness. All other parameters behave as in
    {!engine}. *)

val engine_hierarchy : engine -> Javamodel.Hierarchy.t

val engine_frozen : engine -> Graph.frozen
(** The engine's CSR snapshot: the one it was built with, or the last
    {!engine_reload}ed one. The server publishes this snapshot for its
    lock-free readers. *)

val engine_reach : engine -> Reach.t option
(** The engine's reachability index for {!engine_frozen}, building it on
    first use. Exposed so a server's lock-free readers can pass it as
    {!run}'s [?reach] alongside the snapshot it indexes. It is always
    [Some]; the option stays only for the callers in [perfbench/oracle.ml]
    and [perfbench/traced.ml]. *)

val engine_shards : engine -> Shard.t option
(** Always [None]: package-cone sharding is gone. Kept, with the {!Shard}
    stub, only for the callers in [perfbench/batchw.ml] and
    [perfbench/traced.ml]. *)

val run_batch :
  ?settings:settings ->
  engine ->
  t list ->
  (t * result list) list
(** Answer many queries through one engine — the reach index is built once
    and every repeated [(tin, tout)] pair after the first is a cache hit
    (one hash lookup; a miss runs {!run} on the engine's snapshot and reach
    index, and stores the result). Results are in input order,
    duplicates included. [run_batch e [q]] is the one-query form.

    The distinct cache misses are computed in one fan-out over the engine's
    pool, then replayed through the cache in input order. The replay
    performs the same [find]/[add] sequence as answering one query at a
    time, so the output {e and} the cache state afterwards (hits, misses,
    evictions, recency) are the same at every pool size ([test_scale.ml]
    checks both against {!run} on generated worlds) — parallelism is
    observable only as wall-clock. *)

val engine_reload : engine -> Delta.patch -> unit
(** Swap a {!Delta.apply} patch into a live engine — the one way an
    engine's model changes. The CSR snapshot and hierarchy are replaced,
    the reach index of a [Spliced] patch is maintained incrementally
    ({!Reach.patch} — only components that reach the source of an added
    or removed edge are re-closed; a [Rebuilt] patch's is rebuilt on next
    use), and the cache
    is cleared (one invalidation in {!engine_stats}). Subsequent queries
    answer over the patched model. *)

val engine_stats : engine -> Qcache.stats
(** Hit/miss/eviction/invalidation counters of the result cache; render
    with {!Stats.pp_cache}. *)
