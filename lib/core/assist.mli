(** Content-assist integration (Sections 1 and 5).

    PROSPECTOR hooks the IDE's code completion: when the cursor sits on the
    right-hand side of [Type var = |] or [var = |], the declared type is the
    query output and the lexically visible variables supply the input types
    — the user never writes a query. This module reproduces that reduction:
    a {!context} is the set of visible variables plus the expected type, and
    {!suggest} returns insertion-ready suggestions, each naming the variable
    it consumes. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy

type context = {
  vars : (string * Jtype.t) list;  (** lexically visible variables, in scope order *)
  expected : Jtype.t;  (** the type required at the cursor *)
}

type suggestion = {
  title : string;  (** one-line menu entry, e.g. ["ep.getEditorInput()"] *)
  code : string;  (** full insertion text *)
  uses_var : string option;  (** input variable, [None] for void-input *)
  result : Query.result;
}

val suggest :
  ?settings:Query.settings ->
  frozen:Graph.frozen ->
  ?reach:Reach.t ->
  ?edge_cost:(Elem.t -> int) ->
  ?protocol_check:(Jungloid.t -> string list) ->
  hierarchy:Hierarchy.t ->
  context ->
  suggestion list
(** Ranked suggestions for the context, from one multi-source search (the
    implementation "runs all queries at once by using multiple starting
    points", Section 5). Variables whose type already widens to the expected
    type are suggested first, verbatim — no jungloid needed.

    [frozen]/[?reach]/[?edge_cost]/[?protocol_check] forward to
    {!Query.run_multi}. The server's lock-free readers pass a published
    snapshot, the IDE layer's [Infer.suggest_all] one frozen per buffer. *)
