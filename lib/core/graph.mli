(** The jungloid graph representation shared by signature-only and mined
    graphs (Sections 3.1 and 4.2).

    Nodes are either {e real} — one per reference type (plus the [void]
    pseudo-node) — or {e typestate} nodes: fresh nodes created when a mined
    example jungloid is spliced in, so that its downcast edge is reachable
    only through the example's own prefix (Figure 6's [Object-1] node).

    Nodes are interned to dense integer ids; adjacency is stored both
    forward and backward so the search can run bidirectional pruning. *)

module Jtype = Javamodel.Jtype

type t

type node = int
(** Dense node id, stable for the lifetime of the graph. *)

type edge = {
  elem : Elem.t;
  src : node;
  dst : node;
}

val create : unit -> t

val ensure_type_node : t -> Jtype.t -> node
(** Intern a real type node (or the [void] node for {!Jtype.Void}). *)

val find_type_node : t -> Jtype.t -> node option
(** Lookup without creating. *)

val void_node : t -> node

val add_typestate : t -> underlying:Jtype.t -> origin:string -> node
(** A fresh typestate node. [origin] identifies the mined example that
    created it (used by DOT output and debugging). *)

val add_edge : t -> src:node -> Elem.t -> dst:node -> unit
(** Duplicate edges (same source, elem, and destination) are dropped. The
    check walks [src]'s out-list and [dst]'s in-list in lockstep — a
    duplicate sits in both — so one insertion costs at most twice the
    shorter of the two lists, and no side table is kept: the builder holds
    only the adjacency lists themselves. *)

val node_type : t -> node -> Jtype.t
(** The type carried by the node — for typestate nodes, the underlying
    (declared) type of the intermediate value. *)

val is_typestate : t -> node -> bool

val typestate_origin : t -> node -> string option

val succs : t -> node -> edge list

val preds : t -> node -> edge list

val node_count : t -> int

val edge_count : t -> int

val generation : t -> int
(** Mutation counter: bumped by every node creation and every (non-duplicate)
    edge insertion, never by lookups. {!freeze} stamps it on the snapshot
    ({!frozen_generation}), and a {!Reach} index records the generation it
    was built for, so an engine never applies an index to a snapshot it
    does not describe. Mutating a graph after freezing it leaves the snapshot,
    and every engine built on it, unchanged. *)

val nodes : t -> node list

val iter_edges : t -> (edge -> unit) -> unit

val real_nodes : t -> (Jtype.t * node) list
(** All interned real type nodes with their types. *)

(** {2 Frozen CSR snapshots}

    {!freeze} captures the graph as an immutable compressed-sparse-row view,
    split into a {e hot} and a {e cold} half. The hot half — row offsets,
    destinations/sources, and 0/1 paper costs — is packed into out-of-heap
    {!Bigarray} lanes (native-word ids, uint16 costs): the GC never scans
    them, and they are safe to share read-only across domains. The cold half — the boxed {!edge}
    table, weighted costs, node metadata, and a private copy of the
    type-interning table — stays on the OCaml heap and is only touched when
    a found path is materialized, never per relaxed edge. The record is
    exposed transparently so hot loops ({!Search.Csr}, {!Reach}) can index
    the lanes directly — treat every field as read-only.

    A frozen view is completely self-contained: no operation on it touches
    the originating {!t}, which is what makes it safe to share across
    domains while another domain mutates (and then re-freezes) the live
    graph. [f_generation] records the {!generation} captured, so consumers
    can tell stale snapshots from current ones. Forward adjacency preserves
    {!succs} order exactly. Backward adjacency is a counting sort of the
    forward rows by destination (each node's predecessors in ascending
    forward-edge order) — {e not} {!preds} order; distance sweeps are
    relaxation-order independent, so the difference is unobservable, and it
    makes the backward half a pure function of the forward half (see
    {!derive_bwd}). *)

type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Native-word lanes, not int32: without flambda, boxed [Int32] reads would
    put an allocation on every relaxed edge. *)

type cost_array1 =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val ba_int : int -> int_array1
(** Fresh uninitialized lane (for loaders and shard builders). *)

val ba_cost : int -> cost_array1

type frozen = {
  f_generation : int;
  f_nodes : int;
  f_edges : int;  (** logical edge count: the sum of row lengths *)
  f_fwd_off : int_array1;
      (** length [f_nodes + 1]; edges of [u] live at indices
          [f_fwd_off.{u} .. f_fwd_end.{u} - 1]. Rows need {e not} be
          physically contiguous: an incremental patch ({!Delta}) relocates a
          rewritten row into the lanes' tail slack, leaving its old region
          dead. In a dense snapshot [f_fwd_end] is a storage-sharing view of
          this lane shifted by one, so [f_fwd_off.{u+1}] is still the row
          end there. *)
  f_fwd_end : int_array1;  (** length [f_nodes]; exclusive row ends *)
  f_fwd_dst : int_array1;
  f_fwd_cost : cost_array1;  (** memoized [Elem.cost], aligned with [f_fwd_dst] *)
  f_fwd_wcost : int array;
      (** weighted edge cost (see {!freeze}'s [wcost]), aligned with
          [f_fwd_dst]; plain [int array] — weighted costs exceed uint16 *)
  f_fwd_edge : edge array;  (** cold: the full edge, aligned with [f_fwd_dst] *)
  f_bwd_off : int_array1;
  f_bwd_end : int_array1;
  f_bwd_src : int_array1;
  f_bwd_cost : cost_array1;
  f_bwd_wcost : int array;
      (** weighted edge cost, aligned with [f_bwd_src] — backward rows carry
          no [edge], so weighted distance-to-target sweeps need it baked in *)
  f_fwd_used : int;
      (** physical high-water mark: lane indices at or past this are free
          tail slack (capacity is the lanes' dimension) *)
  f_bwd_used : int;
  f_plain : bool;
      (** no typestate nodes and no downcast edges — precomputed so
          {!Delta}'s spliced-path eligibility check is O(1) *)
  f_tail : bool Atomic.t;
      (** tail-claim token: set once by the first patch that appends into
          this snapshot's tail slack. Records sharing lanes share the token,
          so two patches can never append over each other — the loser takes
          the compact-and-copy path. *)
  f_types : Jtype.t array;
  f_origins : string option array;
  f_ids : (string, node) Hashtbl.t;  (** private copy; never written again *)
  f_void : node option;
}

val derive_bwd :
  ?cap:int ->
  n:int ->
  m:int ->
  fwd_off:int_array1 ->
  fwd_end:int_array1 ->
  fwd_dst:int_array1 ->
  fwd_cost:cost_array1 ->
  fwd_wcost:int array ->
  unit ->
  int_array1 * int_array1 * cost_array1 * int array
(** [(bwd_off, bwd_src, bwd_cost, bwd_wcost)] derived from forward rows by a
    counting sort on destination — the canonical backward representation
    {!freeze} uses, exposed for builders of derived snapshots ({!Shard}).
    The output is dense; [cap] (default [m]) sizes the physical lanes,
    leaving tail slack past index [m - 1]. *)

val default_slack : int -> int
(** Tail-slack heuristic for [m] edges (~12.5%, floored at 64) — the spare
    lane capacity {!freeze} and {!compact} reserve for appended rows. *)

val compact : ?slack:int -> frozen -> frozen
(** Dense copy: rows packed back into offset order, fresh lanes with
    [slack] (default {!freeze}'s heuristic) spare tail entries, and an
    unclaimed tail token. Logical content and generation are unchanged.
    O(nodes) bookkeeping plus one blit per maximal physically contiguous
    row stretch — a lightly patched snapshot compacts in a few memcpys. *)

val frozen_iter_edges : frozen -> (edge -> unit) -> unit
(** Every live edge, row by row in node order. Use this instead of scanning
    [f_fwd_edge] directly: the lane's physical order is not edge order once
    a snapshot has been patched, and its tail holds dead entries. *)

val default_wcost : Elem.t -> int
(** The paper cost in fixed-point units, [Elem.cost_scale * Elem.cost] — the
    default [wcost] of {!freeze}, exposed so incremental patching
    ({!Delta}) can cost new edges identically. *)

val freeze : ?wcost:(Elem.t -> int) -> t -> frozen
(** O(nodes + edges). Captures the graph at its current {!generation}. The
    lanes are allocated with ~12.5% tail slack so incremental patches
    ({!Delta.apply}) can append relocated rows without copying them.
    [wcost] supplies the weighted (mined) cost per elementary jungloid,
    baked into [f_fwd_wcost]/[f_bwd_wcost]; it must be non-negative. The
    default is the paper cost in fixed-point units,
    [Elem.cost_scale * Elem.cost] — snapshots frozen with the default are
    only valid for weighted search under the same (default) cost model. *)

val frozen_generation : frozen -> int

val frozen_node_count : frozen -> int

val frozen_edge_count : frozen -> int

val frozen_find_type_node : frozen -> Jtype.t -> node option
(** {!find_type_node} against the snapshot's interning table. *)

val frozen_void_node : frozen -> node option
(** The [void] pseudo-node if it existed at freeze time; unlike
    {!void_node}, never creates it. *)

val frozen_node_type : frozen -> node -> Jtype.t

val frozen_is_typestate : frozen -> node -> bool

val frozen_succs : frozen -> node -> edge list
(** Convenience slice of the CSR row, in {!succs} order (for callers off the
    hot path). *)

