open Lexer

type state = {
  file : string;
  lx : Lexer.t;
  mutable pos : int;
}

let peek st = st.lx.kinds.(st.pos)

(* Consume one token and return its index; [Eof] is never consumed. *)
let next st =
  let k = st.pos in
  if st.lx.kinds.(k) <> Eof then st.pos <- k + 1;
  k

let fail_at st k msg =
  Error.fail ~file:st.file ~line:st.lx.lines.(k) ~col:st.lx.cols.(k) msg

let expect st kind =
  let k = next st in
  if st.lx.kinds.(k) <> kind then
    fail_at st k
      (Printf.sprintf "expected %s but found %s" (Lexer.describe_kind kind)
         (Lexer.describe st.lx k))

let expect_ident st what =
  let k = next st in
  if st.lx.kinds.(k) = Ident then st.lx.idents.(k)
  else fail_at st k (Printf.sprintf "expected %s but found %s" what (Lexer.describe st.lx k))

(* Dotted name: IDENT (. IDENT)*, as a path. *)
let rec dotted_rest st p =
  match peek st with
  | Dot ->
      ignore (next st);
      dotted_rest st (Names.path st.lx.names ~prefix:p (expect_ident st "a name after '.'"))
  | _ -> p

let parse_dotted st =
  dotted_rest st (Names.path st.lx.names ~prefix:Names.root (expect_ident st "a name"))

let rec array_dims st n =
  match peek st with
  | Lbracket ->
      ignore (next st);
      expect st Rbracket;
      array_dims st (n + 1)
  | _ -> n

let parse_type st =
  let base = parse_dotted st in
  { Ast.base; dims = array_dims st 0 }

type modifiers = {
  mutable vis : Javamodel.Member.visibility;
  mutable static : bool;
  mutable abstract : bool;
  mutable deprecated : bool;
}

let parse_annotations_and_modifiers st =
  let m =
    { vis = Javamodel.Member.Public; static = false; abstract = false; deprecated = false }
  in
  let rec loop () =
    match peek st with
    | At ->
        ignore (next st);
        let name = expect_ident st "an annotation name" in
        if String.equal (Names.ident st.lx.names name) "Deprecated" then m.deprecated <- true;
        loop ()
    | Kw_public ->
        ignore (next st);
        m.vis <- Javamodel.Member.Public;
        loop ()
    | Kw_protected ->
        ignore (next st);
        m.vis <- Javamodel.Member.Protected;
        loop ()
    | Kw_private ->
        ignore (next st);
        m.vis <- Javamodel.Member.Private;
        loop ()
    | Kw_static ->
        ignore (next st);
        m.static <- true;
        loop ()
    | Kw_abstract ->
        ignore (next st);
        m.abstract <- true;
        loop ()
    | Kw_final ->
        ignore (next st);
        loop ()
    | _ -> ()
  in
  loop ();
  m

let parse_params st =
  expect st Lparen;
  let params = ref [] in
  (match peek st with
  | Rparen -> ()
  | _ ->
      let rec loop () =
        let ptype = parse_type st in
        let pname =
          match peek st with Ident -> expect_ident st "a parameter name" | _ -> -1
        in
        params := { Ast.ptype; pname } :: !params;
        match peek st with
        | Comma ->
            ignore (next st);
            loop ()
        | _ -> ()
      in
      loop ());
  expect st Rparen;
  List.rev !params

(* [ctor_path] is the declaration's simple name as a path: a member that
   starts with it and then '(' is a constructor. *)
let parse_member st ~ctor_path =
  let m = parse_annotations_and_modifiers st in
  let first = parse_type st in
  match peek st with
  | Lparen when first.Ast.dims = 0 && first.Ast.base = ctor_path ->
      let params = parse_params st in
      expect st Semi;
      Ast.Rctor { vis = m.vis; params }
  | _ -> (
      let name = Names.ident st.lx.names (expect_ident st "a member name") in
      match peek st with
      | Lparen ->
          let params = parse_params st in
          expect st Semi;
          Ast.Rmeth
            {
              vis = m.vis;
              static = m.static;
              deprecated = m.deprecated;
              ret = first;
              name;
              params;
            }
      | _ ->
          expect st Semi;
          Ast.Rfield { vis = m.vis; static = m.static; typ = first; name })

let parse_name_list st =
  let rec loop acc =
    let n = parse_dotted st in
    match peek st with
    | Comma ->
        ignore (next st);
        loop (n :: acc)
    | _ -> List.rev (n :: acc)
  in
  loop []

let parse_decl st =
  let decl_line = st.lx.lines.(st.pos) in
  let m = parse_annotations_and_modifiers st in
  let kind =
    let k = next st in
    match st.lx.kinds.(k) with
    | Kw_class -> Javamodel.Decl.Class
    | Kw_interface -> Javamodel.Decl.Interface
    | _ ->
        fail_at st k
          (Printf.sprintf "expected 'class' or 'interface' but found %s"
             (Lexer.describe st.lx k))
  in
  let name = expect_ident st "a class or interface name" in
  let extends =
    match peek st with
    | Kw_extends ->
        ignore (next st);
        parse_name_list st
    | _ -> []
  in
  let implements =
    match peek st with
    | Kw_implements ->
        ignore (next st);
        parse_name_list st
    | _ -> []
  in
  expect st Lbrace;
  let ctor_path = Names.path st.lx.names ~prefix:Names.root name in
  let members = ref [] in
  let rec loop () =
    match peek st with
    | Rbrace -> ignore (next st)
    | Eof -> fail_at st st.pos "unexpected end of input inside a declaration"
    | _ ->
        members := parse_member st ~ctor_path :: !members;
        loop ()
  in
  loop ();
  {
    Ast.kind;
    abstract = m.abstract || kind = Javamodel.Decl.Interface;
    name;
    extends;
    implements;
    members = List.rev !members;
    decl_line;
  }

let parse lx ~file src =
  Lexer.tokenize lx ~file src;
  let st = { file; lx; pos = 0 } in
  let package =
    match peek st with
    | Kw_package ->
        ignore (next st);
        let name = parse_dotted st in
        expect st Semi;
        name
    | _ -> Names.root
  in
  let imports = ref [] in
  let rec import_loop () =
    match peek st with
    | Kw_import ->
        ignore (next st);
        imports := parse_dotted st :: !imports;
        expect st Semi;
        import_loop ()
    | _ -> ()
  in
  import_loop ();
  let decls = ref [] in
  let rec decl_loop () =
    match peek st with
    | Eof -> ()
    | _ ->
        decls := parse_decl st :: !decls;
        decl_loop ()
  in
  decl_loop ();
  { Ast.src_file = file; package; imports = List.rev !imports; decls = List.rev !decls }
