(** Raw (unresolved) syntax trees for [.japi] files.

    Names are ids in the load's {!Names} table: a type or supertype name is
    a path (a dotted name as written), a declaration or parameter name an
    identifier, and a member name the identifier's shared text. {!Loader}
    resolves the paths against the set of declarations loaded across all
    files. *)

type rtype = {
  base : int;  (** path as written: a name, primitive keyword, or [void] *)
  dims : int;  (** array dimensions *)
}

type rparam = {
  ptype : rtype;
  pname : int;  (** identifier, or [-1]: names are optional in signatures *)
}

type rmember =
  | Rfield of {
      vis : Javamodel.Member.visibility;
      static : bool;
      typ : rtype;
      name : string;
    }
  | Rmeth of {
      vis : Javamodel.Member.visibility;
      static : bool;
      deprecated : bool;
      ret : rtype;
      name : string;
      params : rparam list;
    }
  | Rctor of {
      vis : Javamodel.Member.visibility;
      params : rparam list;
    }

type rdecl = {
  kind : Javamodel.Decl.kind;
  abstract : bool;
  name : int;  (** simple name, an identifier; the file's package qualifies it *)
  extends : int list;  (** paths *)
  implements : int list;
  members : rmember list;
  decl_line : int;
}

type rfile = {
  src_file : string;
  package : int;  (** path, or {!Names.root} for the default package *)
  imports : int list;  (** paths of imported types *)
  decls : rdecl list;
}
