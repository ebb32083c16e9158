(** Precomputed reachability over the jungloid graph — a rejection oracle.

    This module computes, once per {!Graph.frozen} snapshot, the full
    reachability closure (an SCC condensation followed by one bitset DP),
    after which [can u reach tout?] is a single bit test. {!Query} uses it
    for one thing: a query input that cannot reach [tout] is dropped, and a
    query with no input left is answered [[]] without any search. The
    engine builds the index from the snapshot it serves, and patches it
    ({!patch}) across spliced reloads.

    The index never filters a search. The paper's search (a 0-1 BFS back
    from [tout], then a DFS pruned by the remaining distance to [tout])
    already stays inside the set of nodes that reach [tout], so a cone
    filter on it could never drop a node; {!cone} and {!cone_size} remain
    for observability (cone fractions in benches and traces). *)

(** Compact bitsets over dense int ids ([Sys.int_size] bits per word).
    Exposed so hot loops ({!Search.Csr}) can probe a {!cone} or a node set
    directly instead of going through a closure. *)
module Bits : sig
  type t = int array

  val word : int

  val create : int -> t
  (** [create n] — an all-zero bitset over ids [0 .. n-1]. *)

  val set : t -> int -> unit

  val mem : t -> int -> bool
end

type t

val build : ?pool:Prospector_parallel.Pool.t -> Graph.t -> t
(** O(nodes + edges + SCCs · nodes/word). The index describes the graph as
    of {!Graph.generation} at the time of the call; it never observes later
    mutations (callers rebuild, keyed on the generation). Equivalent to
    [build_frozen ?pool (Graph.freeze g)]. *)

val build_frozen : ?pool:Prospector_parallel.Pool.t -> Graph.frozen -> t
(** Build from an existing CSR snapshot — the engine's path (under 1 ms
    at 10k methods and about 8–13 ms at 100k, next to a [.japi] parse of
    about 0.2–0.3 s at 100k), so no index file is kept on disk. With [?pool], the
    bitset DP over the SCC condensation fans out level by level: all components
    whose successors' closures are complete are closed concurrently, one
    [parallel_for] per level, each returning only after every worker has
    finished. The result is bit-for-bit identical to the sequential build —
    each component writes only its own bitset and unions are commutative —
    so pool size never affects query results. *)

val patch :
  ?pool:Prospector_parallel.Pool.t -> old:t -> sources:Bits.t -> Graph.frozen -> t
(** Delta-aware maintenance after a reload: [patch ~old ~sources fz] indexes
    the patched snapshot [fz], recomputing only components with a path to a
    node of [sources] (the source of an added or removed edge, over node ids
    shared between [old] and [fz]) and reusing every other component's
    closure bitset from [old] by reference. Only sources count: an edge
    u -> v changes the closures of the nodes that reach u, never v's own.
    Falls back to {!build_frozen} when the node count changed, and to
    closing every component afresh when the dirty set passes a fixed
    threshold (25% of nodes — past that the ascending sweep stops paying for
    itself); the components found for the sweep are reused, so no second
    Tarjan pass runs. The result is bit-for-bit identical to
    [build_frozen fz]: same component numbering (Tarjan reruns over the new
    lanes either way) and same closures (clean components' member sets and
    successor closures are unchanged by construction, and verified). *)

val generation : t -> int
(** The graph generation the index was built against. *)

val node_count : t -> int

val scc_count : t -> int

val components : t -> int array
(** The node -> SCC id map (ids in reverse topological order — a
    component's successors all have smaller ids). Shared with the index;
    treat as read-only. *)

val mem : t -> src:Graph.node -> target:Graph.node -> bool
(** [mem t ~src ~target] — can [src] reach [target]? Nodes outside the
    indexed range (created after the build) are conservatively reported
    reachable, so a stale index can only fail to reject, never drop
    results. *)

(** A target's reachability cone in probe form: bit [cone_comp.(u)] of
    [cone_bits] says whether [u] can reach the target, for
    [u < Array.length cone_comp]. Two array loads and a mask per check. *)
type cone = {
  cone_comp : int array;  (** node -> SCC id; shared with the index *)
  cone_bits : Bits.t;  (** over SCC ids: components that reach the target *)
}

val cone : t -> target:Graph.node -> (cone * int) option
(** The cone of [target] together with its node count, in O(SCCs) — the
    member-count sum replaces an O(nodes) sweep, which matters at 10^5+
    nodes. [None] when [target] is outside the indexed range. *)

val cone_size : t -> target:Graph.node -> int
(** Number of nodes that can reach [target]. Benches and traces report it
    against {!node_count} as the cone fraction. *)
