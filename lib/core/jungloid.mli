(** Jungloid values: well-typed compositions of elementary jungloids
    (Definition 3).

    A jungloid is a unary expression [λx.e : input → output]. The [elems]
    list is ordered from the input end to the output end; composing them
    means feeding each elementary jungloid's output to the next one's
    input. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy

type t = {
  input : Jtype.t;  (** [Void] for zero-input jungloids *)
  elems : Elem.t list;  (** never empty *)
}

val make : input:Jtype.t -> Elem.t list -> t
(** @raise Invalid_argument on an empty elementary jungloid list. *)

val of_frozen_path : Graph.frozen -> Search.path -> t
(** Convert a search result found on the snapshot; typestate nodes
    disappear (the elementary jungloids on the edges carry the declared
    types). *)

val input_type : t -> Jtype.t

val output_type : t -> Jtype.t

val length : t -> int
(** Number of non-widening elementary jungloids (the paper's jungloid
    length: widening has no syntax and is not counted). *)

val free_vars : t -> (string * Jtype.t) list
(** All unbound slots, in order of appearance. *)

val contains_downcast : t -> bool

val well_typed : Hierarchy.t -> t -> bool
(** Each composition point matches exactly (widening is explicit, so plain
    type equality); widening edges must go up the hierarchy and downcasts
    down (or across interfaces, which Java permits). *)

val to_expression : t -> string
(** Nested one-line rendering with the input as [x], e.g.
    ["dpreg.getDocumentProvider(x.getEditorInput())"]. Free variables appear
    by name. Written in one pass into one buffer, from the output end
    inward, so each elem is rendered once whatever the chain's length. *)

val to_string : t -> string
(** Lambda rendering with the type, e.g.
    ["λx. x.getEditorInput() : IEditorPart -> IEditorInput"] — the textual
    rank tiebreak ({!Rank.text}). Same single pass as {!to_expression}. *)

val equal : t -> t -> bool

val compare : t -> t -> int
