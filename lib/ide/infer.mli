(** Query inference from source context — the IDE integration of Section 5.

    PROSPECTOR's users never wrote queries: the Eclipse plugin watched for a
    cursor on the right-hand side of [Type var = |] or [var = |], took the
    assigned variable's type as [tout], and the lexically visible variables
    as the [tin] candidates. This module reproduces that end-to-end: write
    mini-Java with a [?] hole where the cursor would be,

    {v
    class Client {
      void run(IWorkbench workbench) {
        IWorkbenchPage page = workbench.getActiveWorkbenchWindow().getActivePage();
        IEditorPart editor = ?;          // <- the cursor
      }
    }
    v}

    and {!holes} recovers, for each hole, the expected type and every
    variable in scope at that point ([workbench] and [page] above, plus
    [this] in instance methods); {!suggest_all} then runs the multi-source
    search for each hole exactly as the plugin's content assist did. *)

module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname

type hole = {
  owner : Qname.t;  (** enclosing class *)
  meth : string;  (** enclosing method name *)
  expected : Jtype.t;  (** the declared type at the hole *)
  vars : (string * Jtype.t) list;  (** variables in scope, in declaration order *)
}

val holes : Minijava.Tast.program -> hole list
(** Every [Type var = ?;] or [var = ?;] hole in the program, in source
    order. *)

val contexts :
  api:Javamodel.Hierarchy.t -> (string * string) list -> hole list
(** Parse and resolve [(filename, mini-Java source)] buffers against an API
    model, then collect the holes.
    @raise Japi.Error.E on syntax or resolution errors. *)

val to_context : hole -> Prospector.Assist.context

val suggest_all :
  ?settings:Prospector.Query.settings ->
  graph:Prospector.Graph.t ->
  hierarchy:Javamodel.Hierarchy.t ->
  hole list ->
  (hole * Prospector.Assist.suggestion list) list
(** Content-assist suggestions for every hole of a buffer, in source
    order. [graph] is frozen once ({!Prospector.Query.freeze}) and indexed
    once ({!Prospector.Reach.build_frozen});
    each hole then runs its own {!Prospector.Assist.suggest} on that
    snapshot. *)
