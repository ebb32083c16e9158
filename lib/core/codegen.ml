module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member

type generated = {
  code : string;
  result_var : string;
  free_var_names : (string * Jtype.t) list;
}

(* Names that cannot be used as Java identifiers; a derived variable name
   landing on one must be rewritten or the generated code won't compile.
   Built once and only read afterwards, so every domain may share it. *)
let keywords =
  let t = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace t k ())
    [
      "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch"; "char";
      "class"; "const"; "continue"; "default"; "do"; "double"; "else"; "enum";
      "extends"; "false"; "final"; "finally"; "float"; "for"; "goto"; "if";
      "implements"; "import"; "instanceof"; "int"; "interface"; "long"; "native";
      "new"; "null"; "package"; "private"; "protected"; "public"; "return";
      "short"; "static"; "strictfp"; "super"; "switch"; "synchronized"; "this";
      "throw"; "throws"; "transient"; "true"; "try"; "void"; "volatile"; "while";
    ];
  t

let safe_name base =
  if base = "class" then "clazz"
  else if Hashtbl.mem keywords base then base ^ "_"
  else base

let var_name_of_type ty =
  let simple = Jtype.simple_string ty in
  let simple =
    match String.index_opt simple '[' with
    | Some i -> String.sub simple 0 i ^ "s"
    | None -> simple
  in
  let len = String.length simple in
  if len = 0 then "v"
  else
    let from =
      if
        len >= 2
        && simple.[0] = 'I'
        && simple.[1] = Char.uppercase_ascii simple.[1]
        && simple.[1] <> Char.lowercase_ascii simple.[1]
      then 1
      else 0
    in
    let name = Bytes.create (len - from) in
    Bytes.blit_string simple from name 0 (len - from);
    Bytes.set name 0 (Char.lowercase_ascii simple.[from]);
    safe_name (Bytes.unsafe_to_string name)

(* Every name handed out so far, mapped to the last numeric suffix tried
   with it as a base. A suffixed name is recorded too, so a later base that
   spells it ([Foo2] after a second [Foo]) moves on instead of reusing it. *)
let fresh used base =
  match Hashtbl.find_opt used base with
  | None ->
      Hashtbl.replace used base 1;
      base
  | Some n ->
      let rec pick n =
        let name = base ^ string_of_int n in
        if Hashtbl.mem used name then pick (n + 1) else (n, name)
      in
      let n, name = pick (n + 1) in
      Hashtbl.replace used base n;
      Hashtbl.replace used name 1;
      name

let prim_default = function
  | Jtype.Boolean -> "false"
  | Jtype.Char -> "'\\0'"
  | Jtype.Float | Jtype.Double -> "0.0"
  | Jtype.Byte | Jtype.Short | Jtype.Int | Jtype.Long -> "0"

(* One pass over the elems. A statement's right-hand side is written to
   [rhs] while the free variables it mentions are declared straight into
   [buf]; then the statement's own variable is named and the statement
   copied after those declarations. *)
let generate ?input ?(qualified = false) (j : Jungloid.t) =
  let tyname = if qualified then Jtype.to_string else Jtype.simple_string in
  let cname = if qualified then Qname.to_string else Qname.simple in
  let used = Hashtbl.create 16 in
  let buf = Buffer.create 256 and rhs = Buffer.create 64 in
  let frees = ref [] in
  let input_var =
    match (input, j.Jungloid.input) with
    | _, Jtype.Void -> ""
    | Some (name, _), _ ->
        Hashtbl.replace used name 1;
        name
    | None, ty -> fresh used (var_name_of_type ty)
  in
  (* A free slot becomes either a default literal (primitives) or a declared
     variable the user must fill (references). *)
  let free_slot pname ty =
    match ty with
    | Jtype.Prim p -> prim_default p
    | _ ->
        let base =
          if
            String.length pname > 0
            && not (String.length pname > 3 && String.starts_with ~prefix:"arg" pname)
          then safe_name pname
          else var_name_of_type ty
        in
        let v = fresh used base in
        Buffer.add_string buf (tyname ty);
        Buffer.add_char buf ' ';
        Buffer.add_string buf v;
        Buffer.add_string buf "; // free variable\n";
        frees := (v, ty) :: !frees;
        v
  in
  let rec add_args i params ~slot ~cur =
    match params with
    | [] -> Buffer.add_char rhs ')'
    | (pname, ty) :: rest ->
        if i > 0 then Buffer.add_string rhs ", ";
        Buffer.add_string rhs
          (match slot with Elem.Param k when i = k -> cur | _ -> free_slot pname ty);
        add_args (i + 1) rest ~slot ~cur
  in
  let call head name params ~slot ~cur =
    Buffer.add_string rhs head;
    Buffer.add_char rhs '.';
    Buffer.add_string rhs name;
    Buffer.add_char rhs '(';
    add_args 0 params ~slot ~cur
  in
  let emit_stmt ty =
    let v = fresh used (var_name_of_type ty) in
    Buffer.add_string buf (tyname ty);
    Buffer.add_char buf ' ';
    Buffer.add_string buf v;
    Buffer.add_string buf " = ";
    Buffer.add_buffer buf rhs;
    Buffer.add_string buf ";\n";
    Buffer.clear rhs;
    v
  in
  let final_var =
    List.fold_left
      (fun cur e ->
        match e with
        | Elem.Widen _ -> cur
        | Elem.Downcast { to_; _ } ->
            Buffer.add_char rhs '(';
            Buffer.add_string rhs (tyname to_);
            Buffer.add_string rhs ") ";
            Buffer.add_string rhs cur;
            emit_stmt to_
        | Elem.Field_access { owner; field } ->
            Buffer.add_string rhs
              (if field.Member.fstatic then cname owner else cur);
            Buffer.add_char rhs '.';
            Buffer.add_string rhs field.Member.fname;
            emit_stmt field.Member.ftype
        | Elem.Static_call { owner; meth; input = slot } ->
            call (cname owner) meth.Member.mname meth.Member.params ~slot ~cur;
            emit_stmt meth.Member.ret
        | Elem.Ctor_call { owner; ctor; input = slot } ->
            Buffer.add_string rhs "new ";
            Buffer.add_string rhs (cname owner);
            Buffer.add_char rhs '(';
            add_args 0 ctor.Member.cparams ~slot ~cur;
            emit_stmt (Jtype.ref_ owner)
        | Elem.Instance_call { owner; meth; input = slot } ->
            let recv =
              match slot with
              | Elem.Receiver -> cur
              | _ -> free_slot "receiver" (Jtype.ref_ owner)
            in
            call recv meth.Member.mname meth.Member.params ~slot ~cur;
            emit_stmt meth.Member.ret)
      input_var j.Jungloid.elems
  in
  { code = Buffer.contents buf; result_var = final_var; free_var_names = List.rev !frees }

let to_java ?input ?qualified j = (generate ?input ?qualified j).code
