(** Incremental model deltas: patch a frozen-CSR snapshot in place of a cold
    rebuild (the live-reload engine, DESIGN §9).

    A delta is an ordered list of {!op}s applied to a hierarchy copy
    ({!Hierarchy.copy} shares persistent maps and carries the warm memos
    over, which body-only edits keep). The common
    live-edit shape — a class body changed, name and supertypes intact —
    takes a {e spliced} path: node ids stay stable (the hierarchy keeps
    its iteration order and no new type is interned), so only the CSR
    rows holding changed member-edge sequences are rewritten. Those rows
    are {e appended} into the snapshot's tail slack after claiming its
    [f_tail] token (compacting first if the slack is spent or the token
    already claimed); the O(nodes) offset/end lanes are copied with the
    rewritten rows repointed, and every data lane and node-side array is
    shared with the old snapshot by reference — safe under concurrent
    readers, which can never index the tail. Nothing on this path is
    O(edges). Everything else — class add/remove, supertype changes,
    newly referenced types, changed array-mention order, mined-example
    (enriched) snapshots — falls back to a full rebuild from the patched
    hierarchy.

    Both paths meet the same oracle, checked by {!frozen_equal}: the
    patched snapshot is logically identical — row for row — to a cold
    rebuild from the patched model. [f_generation] is excluded — it is
    bumped strictly monotonically past the old snapshot's so stale cache
    keys can never alias a reloaded world (a fresh build's node+edge
    count could collide) — as is physical row placement. *)

module Decl = Javamodel.Decl
module Qname = Javamodel.Qname
module Hierarchy = Javamodel.Hierarchy

(** Ops are class-level: a method edit is a [Replace_class] of the edited
    declaration, which takes the spliced path when its name and supertypes
    are unchanged. *)
type op =
  | Add_class of Decl.t
  | Remove_class of Qname.t  (** [java.lang.Object] is not removable *)
  | Replace_class of Decl.t

type error = {
  index : int;  (** position of the offending op in the delta *)
  op_name : string;
  subject : string;  (** the class or member the op addressed *)
  reason : string;
}

type mode =
  | Spliced  (** id-stable row append into tail slack; lanes shared *)
  | Rebuilt  (** full rebuild from the patched hierarchy *)

type patch = {
  p_frozen : Graph.frozen;
  p_hierarchy : Hierarchy.t;  (** the patched model (a copy; input untouched) *)
  p_sources : Reach.Bits.t;
      (** over the {e old} snapshot's node ids: the source of every added
          or removed edge (all nodes when [Rebuilt]) — the set that scopes
          {!Reach.patch} *)
  p_touched_count : int;
      (** distinct endpoints, source or destination, of every added or
          removed edge (the old node count when [Rebuilt]) *)
  p_mode : mode;
  p_ops : int;
}

val op_name : op -> string

val op_subject : op -> string

val mode_string : mode -> string

val apply :
  ?config:Sig_graph.config ->
  ?wcost:(Elem.t -> int) ->
  ?rebuild:(Hierarchy.t -> Graph.frozen) ->
  hierarchy:Hierarchy.t ->
  frozen:Graph.frozen ->
  op list ->
  (patch, error list) result
(** Apply a delta. Ops validate and apply in order (later ops see earlier
    effects); validation is all-or-nothing but reports {e every} invalid op.
    [config] must be the one the snapshot was built with, and [wcost] the
    cost model its lanes were baked with (new edges are costed with it). The
    inputs are never mutated.

    [hierarchy] must be closed: every name a declaration mentions is
    declared, as {!Hierarchy.of_decls} and {!Hierarchy.ensure_closed} leave
    it, and as every patch's [p_hierarchy] is. A rebuild then closes over
    the delta's own declarations only, or over the whole hierarchy when the
    delta removes a class.

    [rebuild] is the caller's cold build from a patched (closed) hierarchy.
    When the patch cannot be spliced it runs once, in place of the
    signature-only [Sig_graph.build] + [Graph.freeze] — so a server whose
    snapshot carries mined examples builds one graph per structural reload,
    not two. It is never called for a spliced patch. The generation bump
    and the all-nodes [p_sources] are the same either way. *)

val frozen_equal : Graph.frozen -> Graph.frozen -> bool
(** Logical row-wise equality ignoring [f_generation] and physical layout
    (row placement, tail slack) — the reload correctness oracle. *)
