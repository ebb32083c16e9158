(** Precomputed reachability over the jungloid graph — the index behind
    reachability-pruned search.

    A query [(tin, tout)] only ever walks nodes that can still reach [tout];
    everything else is dead frontier. This module computes, once per graph
    {!Graph.generation}, the full reachability closure (an SCC condensation
    followed by one bitset DP), after which [can u reach tout?] is a single
    bit test. {!Search} consumes it as a {!cone}; {!Query}'s
    engine builds and rebuilds it transparently; {!Serialize} persists it
    next to the graph so a server restart skips the closure computation.

    Pruning with the {e exact} cone is result-preserving by construction:
    every path that ends at [tout] lies entirely inside the cone, so the
    pruned search enumerates exactly the same path set in exactly the same
    order ([test_reach.ml] checks this property on randomized graphs). *)

(** Compact bitsets over dense int ids ([Sys.int_size] bits per word).
    Exposed so hot loops ({!Search.Csr}, {!Shard}) can probe a {!cone}
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
(** Build from an existing CSR snapshot (the engine already has one — no
    point freezing twice). With [?pool], the bitset DP over the SCC
    condensation fans out level by level: all components whose successors'
    closures are complete are closed concurrently, one [parallel_for] per
    level, each returning only after every worker has finished. The result
    is bit-for-bit identical to the sequential build — each component
    writes only its own bitset and unions are commutative — so pool size
    never affects query results. *)

val patch :
  ?pool:Prospector_parallel.Pool.t -> old:t -> touched:Bits.t -> Graph.frozen -> t
(** Delta-aware maintenance after a reload: [patch ~old ~touched fz] indexes
    the patched snapshot [fz], recomputing only components with a path to a
    [touched] node (an endpoint of an added or removed edge, over node ids
    shared between [old] and [fz]) and reusing every other component's
    closure bitset from [old] by reference. Falls back to {!build_frozen}
    when the node count changed or the dirty set passes a fixed threshold
    (25% of nodes — past that the ascending sweep stops paying for itself).
    The result is bit-for-bit identical to [build_frozen fz]: same component
    numbering (Tarjan reruns over the new lanes either way) and same
    closures (clean components' member sets and successor closures are
    unchanged by construction, and verified). *)

val generation : t -> int
(** The graph generation the index was built against. *)

val node_count : t -> int

val scc_count : t -> int

val components : t -> int array
(** The node -> SCC id map (ids in reverse topological order — a
    component's successors all have smaller ids). Shared with the index;
    treat as read-only. {!Shard} uses it to run DPs over the condensation. *)

val mem : t -> src:Graph.node -> target:Graph.node -> bool
(** [mem t ~src ~target] — can [src] reach [target]? Nodes outside the
    indexed range (created after the build) are conservatively reported
    reachable, so a stale index can only under-prune, never drop results. *)

(** A target's reachability cone in probe form: bit [cone_comp.(u)] of
    [cone_bits] says whether [u] can reach the target. Two array loads and a
    mask per check — the allocation-free, closure-free viability test the
    CSR search inlines per relaxed edge. *)
type cone = {
  cone_comp : int array;  (** node -> SCC id; shared with the index *)
  cone_bits : Bits.t;  (** over SCC ids: components that reach the target *)
}

val cone : t -> target:Graph.node -> (cone * int) option
(** The cone of [target] together with its node count, in O(SCCs) — the
    member-count sum replaces the old O(nodes) sweep, which mattered once
    cones were built per query at 10^5+ nodes. [None] when [target] is
    outside the indexed range (the caller must then search unpruned). *)

val cone_viable : cone -> Graph.node -> bool
(** The cone as a predicate (the search filters its sources with it);
    out-of-range nodes are conservatively viable, matching {!mem}. *)

val cone_size : t -> target:Graph.node -> int
(** Number of nodes that can reach [target] — the pruned search's whole
    world. The bench reports this against {!node_count} as the pruning
    ratio. *)

val reachable_count : t -> src:Graph.node -> int
(** Number of nodes reachable from [src]. *)

(** {2 Persistence} — used by {!Serialize.save_reach} /
    {!Serialize.load_reach}; the dump is a plain marshalable value. *)

type dump

val dump : t -> dump

val undump : dump -> t
(** @raise Invalid_argument on a format version mismatch. *)
