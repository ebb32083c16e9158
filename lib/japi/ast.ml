type rtype = {
  base : int;
  dims : int;
}

type rparam = {
  ptype : rtype;
  pname : int;
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
  name : int;
  extends : int list;
  implements : int list;
  members : rmember list;
  decl_line : int;
}

type rfile = {
  src_file : string;
  package : int;
  imports : int list;
  decls : rdecl list;
}
