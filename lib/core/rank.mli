(** The ranking heuristic of Section 3.2.

    Jungloids are ordered by:
    + {b length} — non-widening elementary jungloids, plus an estimated
      [freevar_cost] (default 2) for every {e reference-typed} free
      variable, since the user will need roughly a size-two jungloid to
      produce each one (primitive slots are filled with literals and cost
      nothing);
    + {b package crossings} — the number of adjacent pairs of API elements
      living in different Java packages (jungloids that wander across many
      packages "do more than what was intended");
    + {b output specificity} — among equal candidates, the one whose
      pre-widening output type is more {e general} (smaller hierarchy depth)
      ranks higher, so a jungloid returning [XMLEditor] does not outrank one
      returning the requested [IEditorPart];
    + the same generality reasoning applied to {e intermediate} types (a
      chain through plainer types is less likely to "do more than what was
      intended" — our deterministic extension of the paper's rule);
    + a textual tiebreak, so results are stable.

    The tiebreaks can be switched off individually for the ablation bench. *)

module Hierarchy = Javamodel.Hierarchy

type weights = {
  freevar_cost : int;
  package_tiebreak : bool;
  generality_tiebreak : bool;
}

val default_weights : weights
(** [{ freevar_cost = 2; package_tiebreak = true; generality_tiebreak = true }] *)

type key = {
  weighted : int;
      (** mined usage-weighted cost in {!Elem.cost_scale} fixed-point units
          (learned edge costs plus the scaled free-variable charge);
          always 0 in paper mode, so the comparison below degenerates to
          the paper's rule *)
  length : int;
  crossings : int;
  specificity : int;  (** hierarchy depth of the pre-widening output type *)
  interior : int;  (** summed depth of intermediate output types *)
  tie : Jungloid.t;
      (** source of the textual tiebreak; rendered lazily by {!compare_key}
          only when all four numeric components tie *)
}

val text : key -> string
(** The textual tiebreak, [Jungloid.to_string] of [tie] — computed on
    demand, never stored. *)

val key :
  ?weights:weights ->
  ?freevar_cost_of:(Javamodel.Jtype.t -> int) ->
  ?edge_cost:(Elem.t -> int) ->
  Hierarchy.t ->
  Jungloid.t ->
  key
(** [freevar_cost_of] overrides the constant free-variable charge with a
    per-type estimate — the "more precise, systematic estimation" the paper
    leaves as future work. {!Query} supplies the actual shortest production
    cost from the graph when [estimate_freevars] is set.

    [edge_cost] switches on the {e mined} (usage-weighted) mode: the [weighted]
    component becomes the sum of the learned per-elem costs plus
    [Elem.cost_scale] times the free-variable charge, and takes precedence
    over every paper component; the paper key remains as the deterministic
    tiebreak. Without it [weighted] is 0 and the order is the paper's. *)

val compare_key : key -> key -> int
(** Lexicographic over (weighted, length, crossings, specificity, interior,
    text); the text is rendered only on a full numeric tie. *)

val type_depth : Hierarchy.t -> Javamodel.Jtype.t -> int
(** Hierarchy depth of a reference type, 1 for arrays, 0 otherwise — the
    generality measure behind [specificity]/[interior]. Exposed so the
    best-first enumerator ({!Topk}) computes tiebreaks with the exact same
    function. *)

val sort :
  ?weights:weights ->
  ?freevar_cost_of:(Javamodel.Jtype.t -> int) ->
  ?edge_cost:(Elem.t -> int) ->
  Hierarchy.t ->
  Jungloid.t list ->
  Jungloid.t list
(** Stable best-first ordering. *)

val sort_by : ('a -> key) -> 'a list -> 'a list
(** Stable sort by {!compare_key} of each element's key, computed once per
    element; each text tiebreak is rendered at most once. *)

val package_crossings : Jungloid.t -> int
(** Exposed for tests: adjacent distinct packages along the chain — the
    input type's package followed by each non-widening elem's owner
    package. *)

val pre_widening_output : Jungloid.t -> Javamodel.Jtype.t
(** The output type before any trailing widening conversions. *)
