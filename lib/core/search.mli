(** Path search over the jungloid graph (Section 3.1, Section 5).

    Edge costs follow the ranking length: widening edges cost 0 (they have
    no syntax), every other elementary jungloid costs 1. The engine first
    computes the shortest cost [m] with a 0-1 BFS, then enumerates {e all}
    acyclic paths of cost at most [m + slack] ([slack = 1] reproduces the
    paper's configuration) with an admissible prune on the remaining
    distance to the target. A multi-source search — the content-assist mode
    that runs one query per visible variable "all at once" — costs about the
    same as a single query. *)

type path = {
  source : Graph.node;
  edges : Graph.edge list;  (** in order from source to target *)
}

(** {2 Epoch-stamped distances and per-domain scratch}

    At 10^5–10^6 nodes, a per-query [Array.make n max_int] dominates the
    cheap queries. The CSR search therefore writes distances into recycled
    per-domain lanes, invalidated wholesale by bumping an epoch — no O(n)
    allocation or clearing between queries. {!Dist.t} is the read side:
    entries whose stamp doesn't match the epoch read as [max_int]. *)

module Dist : sig
  type t = {
    d : int array;  (** capacity may exceed the graph's node count *)
    stamp : int array;  (** entry [u] is live iff [stamp.(u) = epoch] *)
    epoch : int;
  }

  val get : t -> int -> int
  (** Distance of a node; [max_int] when unreached, stale, or out of
      range. *)

  val snapshot : n:int -> t -> int array
  (** Materialize entries [0..n-1] as a plain array ([max_int] for
      unreached) — for tests and callers that outlive the scratch frame. *)
end

module Scratch : sig
  type lane = {
    mutable ld : int array;
    mutable lstamp : int array;
    mutable lepoch : int;
  }

  type t

  val create : unit -> t

  val domain : unit -> t
  (** This domain's scratch (domain-local storage). Lanes are recycled per
      domain, so a {!Dist.t} produced under scratch must not be read from
      another domain or after the frame ends. *)

  val with_frame : t -> (unit -> 'a) -> 'a
  (** Run a query body; lanes taken inside return to the pool when the
      {e outermost} frame ends (frames nest safely — an inner query cannot
      recycle its caller's live lanes). *)

  val take : t -> int -> lane
  (** A lane with capacity for [n] nodes and a freshly bumped epoch (all
      previous contents invalid). Inside a frame, recycled; outside any
      frame, a fresh one-shot lane that is safe to let escape. *)

  val oneshot : int -> lane
  (** A fresh untracked lane (epoch 1, nothing live). *)
end

val path_cost : path -> int
(** Sum of the edge costs (widening free). *)

(** {2 The search kernels}

    Every query runs on a {!Graph.frozen} snapshot ({!Graph.t} is only the
    builder). The 0-1 BFS runs over the out-of-heap offset/cost lanes with
    an int-packed circular deque, distances land in epoch-stamped scratch
    (pass [?scratch] — usually {!Scratch.domain} — inside a
    {!Scratch.with_frame} to make the steady state allocation-free), and
    the path DFS tracks cold edge-table {e indices}, resolving boxed
    {!Graph.edge}s only when a complete path is materialized. Forward rows
    keep {!Graph.succs} order, so the enumeration order is the adjacency
    order of the graph the snapshot was taken from.

    The [?cone] argument of every function here is a pruning oracle,
    normally {!Reach.cone} for the query's target: nodes outside it are
    never entered, shrinking the BFS frontier to the target's reachability
    cone. With the exact cone the prune is result-preserving — every path
    that reaches the target lies inside the cone — so all distances and
    enumerations relevant to the target are unchanged. [test/naive.ml] is
    the reference these kernels are checked against.

    These functions never touch the originating mutable graph, so they are
    safe to call from many domains sharing one snapshot (each domain using
    its own scratch). *)

module Csr : sig
  val distances_to :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    target:Graph.node ->
    Dist.t
  (** Cost of the cheapest path from each node to [target]; [max_int] when
      unreachable. *)

  val distances_from :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    sources:Graph.node list ->
    Dist.t
  (** Cost of the cheapest path from the nearest source to each node. *)

  val weighted_distances_to :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    target:Graph.node ->
    Dist.t
  (** Exact cheapest weighted cost from each node to [target] under the
      cost model baked into the snapshot's [f_bwd_wcost] at freeze time
      (Dijkstra); [max_int] when unreachable. Used as the admissible
      heuristic of weighted best-first search: exact distances satisfy the
      triangle inequality, so the resulting priority is consistent. *)

  val shortest_cost :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    sources:Graph.node list ->
    target:Graph.node ->
    int option
  (** [None] when the target is unreachable from every source. *)

  val enumerate_per_source :
    ?scratch:Scratch.t ->
    Graph.frozen ->
    sources:Graph.node list ->
    target:Graph.node ->
    ?slack:int ->
    ?limit:int ->
    ?cone:Reach.cone ->
    ?truncated:bool ref ->
    unit ->
    path list
  (** All acyclic paths from each source to [target] of cost at most that
      source's own shortest cost plus [slack] (default [slack = 1]), up to
      [limit] paths in all (default 4096), sources in ascending node order
      and each source's paths in DFS order. Returns [[]] when unreachable.
      Paths of cost 0 (pure widening, or an empty path when a source equals
      the target) are excluded: they contain no code.

      Conceptually one query {e per} source, the content-assist semantics:
      a cheap [void] construction must not suppress a longer solution from
      a visible variable. The backward BFS is shared, keeping the cost
      close to a single query — the paper's "multiple starting points"
      implementation note. With one source this is the paper's
      single-query enumeration.

      [?truncated] is set to [true] (never cleared — callers may share one
      flag across searches) when the enumeration stopped at [limit], i.e.
      the returned list may be missing paths. The check is conservative:
      exactly [limit] paths also raises the flag. *)
end

val distances_from : Graph.t -> sources:Graph.node list -> int array
(** {!Csr.distances_from} on a fresh {!Graph.freeze} of the graph, as a
    plain array ([max_int] = unreached) — for one-off callers that hold
    only the builder. *)
