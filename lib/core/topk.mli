(** Rank-aware best-first top-k path enumeration.

    The lazy alternative to {!Search.Csr.enumerate_per_source} +
    {!Rank.sort_by}: path prefixes live in a shared-prefix arena
    (parent-pointer rows in flat int arrays) under a binary min-heap ordered
    by the admissible priority [cost + free-variable charge + dist_to], and
    the Rank tiebreak components are maintained incrementally per appended
    edge. Completed paths are therefore delivered in {e exact}
    {!Rank.compare_key} order — the order a stable sort of the exhaustive
    enumeration gives — while the search touches about [k] candidates
    instead of materializing thousands. {!Query} uses this as its candidate
    source under [settings.strategy = BestFirst]; the module is exposed
    (including {!Heap} and {!Arena}) for its unit tests.

    Streams from one generator are consumer-paced: each {!next} call pops
    and expands only until the next candidate's position is certified
    (all paths of its length completed, its numeric-tie group resolved).
    A group of one needs no tiebreak: only groups of two or more render
    text ({!Jungloid.to_string}) and collect edge ordinals. *)

module Heap : sig
  (** Binary min-heap over [(priority, payload)] int pairs in parallel
      arrays. Pop order among equal priorities is unspecified but
      deterministic. *)

  type t

  val create : unit -> t
  val length : t -> int

  val min_prio : t -> int
  (** [max_int] when empty. *)

  val add : t -> prio:int -> int -> unit

  val pop : t -> int
  (** Payload of a minimum-priority entry; the heap must be non-empty. *)
end

module Arena : sig
  (** The shared-prefix path arena: each row is a prefix, extending a
      prefix appends one row pointing at its parent — no list copying,
      no per-path allocation until {!path} reconstructs a result. *)

  type t

  val create : unit -> t
  val size : t -> int

  val add_root : t -> Graph.node -> int
  (** A zero-length prefix at a source node; returns its row id. *)

  val append : t -> parent:int -> ord:int -> Graph.edge -> int
  (** Extend [parent] with an edge whose global CSR edge index is [ord];
      returns the new row id. Any ordinal that increases along each node's
      adjacency row works: only ordinals of edges leaving one node are ever
      compared, and a CSR row's indices are contiguous and increasing (a
      row patched into the snapshot's tail slack too). *)

  val node : t -> int -> Graph.node
  (** Head node of a prefix. *)

  val parent : t -> int -> int
  (** Parent row, [-1] for a root. *)

  val on_path : t -> int -> Graph.node -> bool
  (** Does the prefix ending at this row visit the node? (The acyclicity
      check — a chain walk, since heap prefixes are not nested the way DFS
      stack prefixes are.) *)

  val path : t -> int -> Search.path
  (** Reconstruct the full path, root first. *)

  val ords_of : t -> int -> int array
  (** The edge ordinals from the root outward — the DFS-lexicographic
      coordinates of the path, since each ordinal orders its edge within
      its source's adjacency row. *)
end

type candidate = {
  cand_path : Search.path;
  cand_jungloid : Jungloid.t;
  cand_key : Rank.key;
      (** exactly what {!Rank.key} computes for it; {!Query} hands it to
          the result as is *)
}

type t
(** A running best-first enumeration. *)

(** A reusable best-first workspace: the arena's lanes, the heap's two
    lanes and the seven per-row rank lanes, plus an epoch-stamped memo of
    per-edge rank contributions (charge, package, output depth) keyed by
    global CSR edge index. Only the {e allocation} is shared across
    queries; contents are per-query (charge depends on the free-variable
    estimator, package ids on the intern table).

    {!start} takes the memo: it resets the row lanes' lengths, sizes the
    edge lanes to [edge_slots], and bumps the epoch, which invalidates
    every edge entry at once. Lanes stay at their high-water mark, 13
    words per row of capacity (measured: 2,731 rows serving the bundled
    model, 111,577 on a 100k-method world), so a steady-state query
    allocates none of them.

    Lifetime: one live enumeration per memo. The enumeration started last
    owns it; {!next} on an earlier one raises [Invalid_argument] instead of
    reading recycled rows. {!Query} passes {!domain}: every query is done
    with its enumeration before it returns, so the next query on the domain
    may take the workspace over. An enumeration that must stay live beside
    others needs a memo of its own ({!create}). *)
module Memo : sig
  type t

  val create : unit -> t

  val domain : unit -> t
  (** This domain's memo (domain-local storage). *)
end

val start :
  ?freevar_cost_of:(Javamodel.Jtype.t -> int) ->
  memo:Memo.t ->
  weights:Rank.weights ->
  hierarchy:Javamodel.Hierarchy.t ->
  node_type:(Graph.node -> Javamodel.Jtype.t) ->
  iter_succs:(Graph.node -> (int -> Graph.edge -> unit) -> unit) ->
  edge_slots:int ->
  materialize:(Search.path -> Jungloid.t) ->
  dist_to:Search.Dist.t ->
  sources:(Graph.node * int) list ->
  target:Graph.node ->
  limit:int ->
  unit ->
  t
(** Begin a search in [memo]'s workspace, retiring any earlier enumeration
    on the same memo. [iter_succs u f] must call [f ord e] for each
    outgoing edge in adjacency order, [ord] being its global CSR edge index
    and [edge_slots] the length of the snapshot's edge table (every [ord]
    is below it); per-edge rank contributions are memoized once per edge.
    [dist_to] are exact backward 0-1-BFS distances to [target] ([max_int] =
    unreachable), which keeps the priority admissible and consistent.
    [sources] pairs each source node with its cost budget
    (shortest-cost + slack — per source, as {!Search.Csr.enumerate_per_source}
    budgets them); a node must appear at most once. [limit] caps completed
    candidates exactly as the DFS caps enumerated paths.

    [weights]/[freevar_cost_of] must match what the consumer passes to
    {!Rank.key}, or the certified order and the final keys disagree.
    Negative charges break priority monotonicity — callers gate on
    [freevar_cost < 0] and fall back to the exhaustive strategy. *)

val next : t -> candidate option
(** The next candidate in exact {!Rank.compare_key} order (ties resolved
    as the exhaustive pipeline resolves them: textual rendering, then
    source node, then DFS-lexicographic edge order); [None] when the
    budgeted search space is exhausted or [limit] was hit.

    @raise Invalid_argument if a later {!start} has taken this
    enumeration's memo. *)

val materialized : t -> int
(** How many candidates were materialized into jungloids so far — the
    laziness metric ([BENCH_topk.json] compares it against the exhaustive
    enumeration count). *)

val truncated : t -> bool
(** Whether the search stopped at [limit] completed candidates. *)
