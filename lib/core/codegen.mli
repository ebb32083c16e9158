(** Java code generation from jungloids (Sections 2.2 and 5).

    Each non-widening elementary jungloid becomes one statement; widening
    has no syntax and only changes the static type the next statement sees.
    Reference-typed free variables are declared with a
    [// free variable] comment, exactly as the paper's FAQ 270 example
    declares [DocumentProviderRegistry dpreg] — the user is expected to run
    a follow-up query to produce each one. Primitive-typed free variables
    are filled with a default literal ([false], [0]), matching the paper's
    [AST.parseCompilationUnit(cu, false)] rendering. *)

module Jtype = Javamodel.Jtype

type generated = {
  code : string;  (** the statements, newline-separated *)
  result_var : string;  (** name of the variable holding the output *)
  free_var_names : (string * Jtype.t) list;
      (** declared free variables the user still has to produce *)
}

val generate : ?input:string * Jtype.t -> ?qualified:bool -> Jungloid.t -> generated
(** [generate ~input:("ep", t) j] names the jungloid input [ep]; when
    [input] is omitted a variable named after the input type is assumed to
    exist in scope (for [Void]-input jungloids no input is referenced at
    all). Variable names are derived from type names and uniquified: a
    repeated base gets the next numeric suffix no earlier name spells
    ([foo], [foo2], then a [Foo2] local becomes [foo22]).

    One pass over the elems into one buffer, without [Printf]: each
    statement is written once, after the free-variable declarations its
    right-hand side needs.

    With [qualified] (default [false]) type and class references are
    rendered fully qualified — the form the analyzer's round-trip re-parse
    uses, since simple names need import context to resolve. *)

val to_java : ?input:string * Jtype.t -> ?qualified:bool -> Jungloid.t -> string
(** Just the code of {!generate}. *)

val var_name_of_type : Jtype.t -> string
(** Naming convention used for generated locals: simple name, leading
    interface-[I] stripped, first letter lowercased — [IEditorInput] becomes
    [editorInput]. Names that collide with a Java keyword are rewritten
    ([Class] becomes [clazz]). Exposed for tests. *)
