let log_src = Logs.Src.create "prospector.japi" ~doc:"API signature loading"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

(* [void] and the primitives, interned first into every load's table, so an
   identifier id below their count names one of them. *)
let builtin_types =
  Jtype.Void
  :: List.map (fun p -> Jtype.Prim p) Jtype.[ Boolean; Byte; Char; Short; Int; Long; Float; Double ]

(* Everything one load interns and memoises. A simple name's meaning
   depends on its file's package and imports, so [memo] holds the path a
   simple name resolved to for the file numbered [file] only: an entry is
   valid while its [memo_file] stamp matches. *)
type context = {
  names : Names.t;
  builtins : Jtype.t array;
  declared : (int, unit) Hashtbl.t;  (* paths of the declarations loaded *)
  by_simple : (int, int list) Hashtbl.t;  (* identifier -> those paths, latest first *)
  object_path : int;
  string_path : int;
  memo : int array;  (* identifier -> path *)
  memo_file : int array;
  mutable file : int;
}

let qname cx p = Names.qname cx.names p

let declare names rfiles =
  let declared = Hashtbl.create 64 in
  let by_simple = Hashtbl.create 64 in
  List.iter
    (fun (rf : Ast.rfile) ->
      List.iter
        (fun (d : Ast.rdecl) ->
          let p = Names.path names ~prefix:rf.package d.name in
          if Hashtbl.mem declared p then
            Error.fail ~file:rf.src_file ~line:d.decl_line ~col:1
              (Printf.sprintf "duplicate declaration of %s"
                 (Qname.to_string (Names.qname names p)));
          Hashtbl.replace declared p ();
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_simple d.name) in
          Hashtbl.replace by_simple d.name (p :: existing))
        rf.decls)
    rfiles;
  (declared, by_simple)

let resolve_simple cx (rf : Ast.rfile) ~line x =
  let in_pkg = Names.path cx.names ~prefix:rf.package x in
  if Hashtbl.mem cx.declared in_pkg then in_pkg
  else
    match List.find_opt (fun imp -> Names.last cx.names imp = x) rf.imports with
    | Some imp -> imp
    | None -> (
        match Hashtbl.find_opt cx.by_simple x with
        | Some [ p ] -> p
        | None -> (
            match Names.ident cx.names x with
            | "Object" -> cx.object_path
            | "String" -> cx.string_path
            | _ -> in_pkg)
        | Some ps ->
            Error.fail ~file:rf.src_file ~line ~col:1
              (Printf.sprintf "ambiguous type name '%s': could be %s" (Names.ident cx.names x)
                 (String.concat " or " (List.map (fun p -> Qname.to_string (qname cx p)) ps))))

(* The path a name written in [rf] denotes: a dotted name is taken as
   fully qualified, a simple one is looked up as {!Loader}'s interface
   describes, once per file. *)
let resolve cx rf ~line p =
  if Names.prefix cx.names p <> Names.root then p
  else
    let x = Names.last cx.names p in
    if cx.memo_file.(x) = cx.file then cx.memo.(x)
    else begin
      let r = resolve_simple cx rf ~line x in
      cx.memo.(x) <- r;
      cx.memo_file.(x) <- cx.file;
      r
    end

let resolve_type cx rf ~line (rt : Ast.rtype) =
  let base =
    let x = Names.last cx.names rt.base in
    if Names.prefix cx.names rt.base = Names.root && x < Array.length cx.builtins then
      cx.builtins.(x)
    else Names.ref_type cx.names (resolve cx rf ~line rt.base)
  in
  let rec wrap ty n = if n = 0 then ty else wrap (Jtype.Array ty) (n - 1) in
  wrap base rt.dims

let resolve_params cx rf ~line params =
  List.mapi
    (fun i (p : Ast.rparam) ->
      let name =
        if p.pname >= 0 then Names.ident cx.names p.pname else Printf.sprintf "arg%d" i
      in
      (name, resolve_type cx rf ~line p.ptype))
    params

(* An ambiguous name fails at its first resolution, in this order: the
   members in order (a method's return type before its parameters), then
   the implemented interfaces, then the supertypes extended. *)
let resolve_decl cx (rf : Ast.rfile) (d : Ast.rdecl) =
  let line = d.decl_line in
  let fields = ref [] and methods = ref [] and ctors = ref [] in
  List.iter
    (function
      | Ast.Rfield { vis; static; typ; name } ->
          fields := Member.field ~vis ~static name (resolve_type cx rf ~line typ) :: !fields
      | Ast.Rmeth { vis; static; deprecated; ret; name; params } ->
          let ret = resolve_type cx rf ~line ret in
          let params = resolve_params cx rf ~line params in
          methods := Member.meth ~vis ~static ~deprecated name ~params ~ret :: !methods
      | Ast.Rctor { vis; params } ->
          ctors := Member.ctor ~vis (resolve_params cx rf ~line params) :: !ctors)
    d.members;
  let names ps = List.map (fun p -> qname cx (resolve cx rf ~line p)) ps in
  let implements = names d.implements in
  let extends = names d.extends in
  Decl.make ~kind:d.kind ~abstract:d.abstract ~extends ~implements ~fields:(List.rev !fields)
    ~methods:(List.rev !methods) ~ctors:(List.rev !ctors)
    (qname cx (Names.path cx.names ~prefix:rf.package d.name))

let validate_kinds names h resolved =
  List.iter
    (fun ((rf : Ast.rfile), (d : Ast.rdecl), (decl : Decl.t)) ->
      let fail msg = Error.fail ~file:rf.src_file ~line:d.decl_line ~col:1 msg in
      let name = Names.ident names d.name in
      let check_target kind_needed role q =
        match Hierarchy.find_opt h q with
        | Some target when not target.Decl.synthetic ->
            if target.Decl.kind <> kind_needed then
              fail
                (Printf.sprintf "%s %s %s %s, which is not %s" name role
                   (match kind_needed with Decl.Class -> "class" | Decl.Interface -> "interface")
                   (Qname.to_string q)
                   (match kind_needed with
                   | Decl.Class -> "a class"
                   | Decl.Interface -> "an interface"))
        | _ -> ()
      in
      (match d.kind with
      | Decl.Class ->
          List.iter (check_target Decl.Class "extends") decl.extends;
          List.iter (check_target Decl.Interface "implements") decl.implements
      | Decl.Interface -> List.iter (check_target Decl.Interface "extends") decl.extends);
      (* Interfaces cannot declare constructors. *)
      if d.kind = Decl.Interface && decl.ctors <> [] then
        fail (Printf.sprintf "interface %s declares a constructor" name);
      (* Cycle check: the declaration must not appear in its own strict
         supertype set. *)
      let q = decl.dname in
      if Qname.Set.mem q (Hierarchy.supers h q) then
        fail (Printf.sprintf "inheritance cycle through %s" (Qname.to_string q)))
    resolved

let load_files sources =
  let names = Names.create () in
  List.iter (fun ty -> ignore (Names.intern names (Jtype.to_string ty))) builtin_types;
  let lexer = Lexer.create names in
  let rfiles = List.map (fun (file, src) -> Parser.parse lexer ~file src) sources in
  let declared, by_simple = declare names rfiles in
  let n = Names.ident_count names in
  let cx =
    {
      names;
      builtins = Array.of_list builtin_types;
      declared;
      by_simple;
      object_path = Names.path_of_string names (Qname.to_string Qname.object_qname);
      string_path = Names.path_of_string names (Qname.to_string Qname.string_qname);
      memo = Array.make n Names.root;
      memo_file = Array.make n (-1);
      file = 0;
    }
  in
  let resolved =
    List.concat
      (List.mapi
         (fun i (rf : Ast.rfile) ->
           cx.file <- i;
           List.map (fun d -> (rf, d, resolve_decl cx rf d)) rf.decls)
         rfiles)
  in
  let decls = List.map (fun (_, _, d) -> d) resolved in
  let h = Hierarchy.of_decls decls in
  validate_kinds names h resolved;
  Log.info (fun m ->
      m "loaded %d declarations from %d files (hierarchy size %d incl. placeholders)"
        (List.length decls) (List.length rfiles) (Hierarchy.size h));
  h

let load_string ?(file = "<string>") src = load_files [ (file, src) ]
