(** Rank-aware best-first top-k path enumeration.

    The lazy alternative to {!Search.Csr.enumerate_per_source} +
    {!Rank.sort_by}: path prefixes live in a shared-prefix arena
    (parent-pointer rows in flat int arrays) under a binary min-heap ordered
    by the admissible priority [cost + free-variable charge + dist_to], and
    the Rank tiebreak components are maintained incrementally per appended
    edge. Each (node, budget room) pair's passing successors are filtered
    once per query, and a prefix's rows are written only when it pops. Completed paths are therefore delivered in {e exact}
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
  (** Binary min-heap over [(priority, payload)] int pairs, stored side by
      side in one array. Pop order among equal priorities is unspecified
      but deterministic: it depends only on the priorities pushed and
      popped, in order. *)

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
      stack prefixes are. Each row summarizes its chain's nodes in 62
      bits, so a node outside the summary needs no walk.) *)

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

(** A reusable best-first workspace. Every table in it is one flat [int]
    array of fixed-width records, beside two edge arrays. It holds:
    - the rows, one per popped prefix: the arena's 4-int link record
      (parent, head, edge ordinal, chain summary), its edge, and a 7-int
      rank row, 12 words per row of capacity. A prefix's rows are written
      when the prefix pops, not when it is pushed;
    - the heap, 2 words per pushed prefix. An entry's payload packs its
      parent row and its successor record into one [int], 31 bits each; a
      root's payload is negative;
    - the successor memo. The first expansion of a (node, room) pair in a
      query records the successors that pass the reach and budget filter,
      in adjacency order: ordinal, head, edge cost and priority increment,
      one 4-int record each, and the edge. Later expansions of the pair
      walk that slice. A node table (per node: a stamp and a chain head)
      links a node's (room, first record, length, next) entries; it grows
      on demand;
    - an epoch-stamped memo of per-edge rank contributions keyed by global
      CSR edge index, 4 words per edge: a stamp, the charge (filled when a
      successor record needs it), and the package and output depth
      (filled when a row needs them).

    Only the {e allocation} is shared across queries; contents are
    per-query (charge depends on the free-variable estimator, package ids
    on the intern table, a successor slice on the distance lanes).

    {!start} takes the memo: it resets every table's length, sizes the
    edge memo to [edge_slots], and bumps the epoch, which invalidates every
    edge entry and every node's entry chain at once. Tables stay at their
    high-water mark, so a steady-state query allocates none of them;
    {!growths} counts their reallocations.

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

  val growths : t -> int
  (** How many times any of the memo's tables has been reallocated since
      {!create}. A workload whose queries have all run once on the memo
      adds 0 when it runs again. *)
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
