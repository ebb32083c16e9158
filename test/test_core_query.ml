(* End-to-end tests for Codegen, Query, and Assist on the paper's worked
   examples (Sections 1, 2.2, and 5). *)

module Jtype = Javamodel.Jtype
module Elem = Prospector.Elem
module Graph = Prospector.Graph
module Sig_graph = Prospector.Sig_graph
module Jungloid = Prospector.Jungloid
module Codegen = Prospector.Codegen
module Query = Prospector.Query
module Assist = Prospector.Assist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The Section 1 parsing model: IFile -> ICompilationUnit -> ASTNode. *)
let parsing_model () =
  Japi.Loader.load_files
    [
      ( "resources",
        {|
        package org.eclipse.core.resources;
        interface IFile extends IResource { }
        interface IResource { }
        |} );
      ( "jdt",
        {|
        package org.eclipse.jdt.core;
        interface ICompilationUnit { }
        class JavaCore {
          static ICompilationUnit createCompilationUnitFrom(IFile file);
        }
        |} );
      ( "dom",
        {|
        package org.eclipse.jdt.core.dom;
        class ASTNode { }
        class CompilationUnit extends ASTNode { }
        class AST {
          static CompilationUnit parseCompilationUnit(ICompilationUnit unit, boolean resolve);
        }
        |} );
    ]

let faq270_model () =
  Japi.Loader.load_string
    {|
    package org.eclipse.ui;
    interface IEditorPart { IEditorInput getEditorInput(); }
    interface IEditorInput { }
    interface IDocumentProvider { }
    class DocumentProviderRegistry {
      static DocumentProviderRegistry getDefault();
      IDocumentProvider getDocumentProvider(IEditorInput input);
    }
    |}

(* ---------- Codegen ---------- *)

let test_var_name_of_type () =
  check_string "strips I" "editorInput"
    (Codegen.var_name_of_type (Jtype.ref_of_string "x.IEditorInput"));
  check_string "plain" "shell" (Codegen.var_name_of_type (Jtype.ref_of_string "x.Shell"));
  check_string "array" "bytes"
    (Codegen.var_name_of_type (Jtype.array (Jtype.ref_of_string "x.Byte")));
  check_string "lowercase already" "thing"
    (Codegen.var_name_of_type (Jtype.ref_of_string "x.Thing"))

let test_codegen_parsing_example () =
  let h = parsing_model () in
  let g = Sig_graph.build h in
  let q = Query.query "org.eclipse.core.resources.IFile" "org.eclipse.jdt.core.dom.ASTNode" in
  match Query.run ~frozen:(Query.freeze g) ~hierarchy:h q with
  | [] -> Alcotest.fail "expected a result for (IFile, ASTNode)"
  | top :: _ ->
      (* Paper Section 1: createCompilationUnitFrom then parseCompilationUnit. *)
      check_bool "uses JavaCore" true (contains ~sub:"JavaCore.createCompilationUnitFrom" top.Query.code);
      check_bool "uses AST.parse" true (contains ~sub:"AST.parseCompilationUnit" top.Query.code);
      check_bool "boolean default filled" true (contains ~sub:"false" top.Query.code);
      check_int "rank length 2" 2 top.Query.key.Prospector.Rank.length

let test_codegen_free_variable_declared () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let q =
    Query.query "org.eclipse.ui.IEditorPart" "org.eclipse.ui.IDocumentProvider"
  in
  match Query.run ~frozen:(Query.freeze g) ~hierarchy:h q with
  | [] -> Alcotest.fail "expected a result"
  | top :: _ ->
      check_bool "free variable comment" true (contains ~sub:"// free variable" top.Query.code);
      check_bool "declares the registry" true
        (contains ~sub:"DocumentProviderRegistry" top.Query.code)

let test_codegen_named_input () =
  let h = faq270_model () in
  let find name =
    Javamodel.Hierarchy.find h (Javamodel.Qname.of_string ("org.eclipse.ui." ^ name))
  in
  let ep = find "IEditorPart" in
  let get_input = List.hd ep.Javamodel.Decl.methods in
  let j =
    Jungloid.make
      ~input:(Jtype.ref_of_string "org.eclipse.ui.IEditorPart")
      [ Elem.Instance_call { owner = ep.Javamodel.Decl.dname; meth = get_input; input = Elem.Receiver } ]
  in
  let gen =
    Codegen.generate ~input:("ep", Jtype.ref_of_string "org.eclipse.ui.IEditorPart") j
  in
  check_bool "uses ep" true (contains ~sub:"ep.getEditorInput()" gen.Codegen.code);
  check_string "result var" "editorInput" gen.Codegen.result_var

let test_codegen_unique_names () =
  (* A chain that produces two values of the same type must not reuse the
     variable name. *)
  let h = Japi.Loader.load_string "package p; class A { A next(); }" in
  let a = Javamodel.Hierarchy.find h (Javamodel.Qname.of_string "p.A") in
  let next = List.hd a.Javamodel.Decl.methods in
  let call = Elem.Instance_call { owner = a.Javamodel.Decl.dname; meth = next; input = Elem.Receiver } in
  let j = Jungloid.make ~input:(Jtype.ref_of_string "p.A") [ call; call ] in
  let gen = Codegen.generate j in
  check_bool "a2 present" true (contains ~sub:"a2" gen.Codegen.code);
  check_bool "a3 present" true (contains ~sub:"a3" gen.Codegen.code)

(* ---------- Query ---------- *)

let test_query_faq270_both_steps () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  (* Step 1 of Section 2.2. *)
  let r1 =
    Query.run ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "org.eclipse.ui.IEditorPart" "org.eclipse.ui.IDocumentProvider")
  in
  check_bool "step 1 found" true (r1 <> []);
  (* Step 2: the void query for the registry. *)
  let r2 =
    Query.run ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "void" "org.eclipse.ui.DocumentProviderRegistry")
  in
  check_bool "step 2 found" true (r2 <> []);
  check_bool "step 2 is getDefault" true
    (contains ~sub:"DocumentProviderRegistry.getDefault()" (List.hd r2).Query.code)

let test_query_no_path () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let r =
    Query.run ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "org.eclipse.ui.IDocumentProvider" "org.eclipse.ui.IEditorPart")
  in
  check_int "no results" 0 (List.length r)

let test_query_unknown_type () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let r = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "no.Such" "also.Missing") in
  check_int "no results" 0 (List.length r)

let test_query_max_results () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package p;\nclass A {\n";
  for i = 0 to 19 do
    Buffer.add_string buf (Printf.sprintf "  T get%d();\n" i)
  done;
  Buffer.add_string buf "}\nclass T { }\n";
  let h = Japi.Loader.load_string (Buffer.contents buf) in
  let g = Sig_graph.build h in
  let settings = { Query.default_settings with max_results = 5 } in
  let r = Query.run ~settings ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "p.A" "p.T") in
  check_int "truncated to 5" 5 (List.length r)

let test_query_results_sorted () =
  let h = parsing_model () in
  let g = Sig_graph.build h in
  let q = Query.query "org.eclipse.core.resources.IFile" "org.eclipse.jdt.core.dom.ASTNode" in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h q in
  let keys = List.map (fun r -> r.Query.key) rs in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Prospector.Rank.compare_key a b <= 0 && sorted rest
    | _ -> true
  in
  check_bool "ranked order" true (sorted keys)

(* ---------- Assist (multi-source) ---------- *)

let test_assist_finds_registry_via_void () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let ctx =
    {
      Assist.vars =
        [
          ("ep", Jtype.ref_of_string "org.eclipse.ui.IEditorPart");
          ("inp", Jtype.ref_of_string "org.eclipse.ui.IEditorInput");
        ];
      expected = Jtype.ref_of_string "org.eclipse.ui.DocumentProviderRegistry";
    }
  in
  let suggestions = Assist.suggest ~frozen:(Query.freeze g) ~hierarchy:h ctx in
  check_bool "found" true (suggestions <> []);
  let top = List.hd suggestions in
  (* Section 2.2: only the void query has a solution. *)
  check_bool "void source" true (top.Assist.uses_var = None);
  check_string "getDefault" "DocumentProviderRegistry.getDefault()" top.Assist.title

let test_assist_uses_variable () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let ctx =
    {
      Assist.vars = [ ("ep", Jtype.ref_of_string "org.eclipse.ui.IEditorPart") ];
      expected = Jtype.ref_of_string "org.eclipse.ui.IEditorInput";
    }
  in
  let suggestions = Assist.suggest ~frozen:(Query.freeze g) ~hierarchy:h ctx in
  check_bool "found" true (suggestions <> []);
  let top = List.hd suggestions in
  check_bool "uses ep" true (top.Assist.uses_var = Some "ep");
  check_string "title substitutes var" "ep.getEditorInput()" top.Assist.title;
  check_bool "code references ep" true (contains ~sub:"ep.getEditorInput()" top.Assist.code)

let test_assist_direct_variable () =
  (* A variable already of (a subtype of) the expected type is suggested
     verbatim, before any jungloid. *)
  let h =
    Japi.Loader.load_string
      "package p; class Editor implements IPart { } interface IPart { } class W { Editor get(); }"
  in
  let g = Sig_graph.build h in
  let ctx =
    {
      Assist.vars =
        [ ("w", Jtype.ref_of_string "p.W"); ("ed", Jtype.ref_of_string "p.Editor") ];
      expected = Jtype.ref_of_string "p.IPart";
    }
  in
  let suggestions = Assist.suggest ~frozen:(Query.freeze g) ~hierarchy:h ctx in
  check_bool "has suggestions" true (suggestions <> []);
  let top = List.hd suggestions in
  check_string "variable itself first" "ed" top.Assist.title;
  check_bool "jungloid suggestions follow" true
    (List.exists (fun s -> s.Assist.title = "w.get()") suggestions)

let test_assist_two_vars_same_type () =
  let h = faq270_model () in
  let g = Sig_graph.build h in
  let ctx =
    {
      Assist.vars =
        [
          ("editor1", Jtype.ref_of_string "org.eclipse.ui.IEditorPart");
          ("editor2", Jtype.ref_of_string "org.eclipse.ui.IEditorPart");
        ];
      expected = Jtype.ref_of_string "org.eclipse.ui.IEditorInput";
    }
  in
  let suggestions = Assist.suggest ~frozen:(Query.freeze g) ~hierarchy:h ctx in
  let vars = List.filter_map (fun s -> s.Assist.uses_var) suggestions in
  check_bool "editor1 suggested" true (List.mem "editor1" vars);
  check_bool "editor2 suggested" true (List.mem "editor2" vars)

(* A slack near [max_int] must not wrap [m + slack] to a negative budget
   that answers nothing: saturated, it means no bound, which a slack of the
   node count already means, since edge costs are 0 or 1 and no acyclic
   path costs more than the node count. *)
let test_query_unbounded_slack () =
  let hierarchy = Apidata.Api.hierarchy () in
  let frozen = Query.freeze (Apidata.Api.default_graph ()) in
  let n = Graph.frozen_node_count frozen in
  let tin = Jtype.ref_of_string "org.eclipse.core.resources.IFile"
  and tout = Jtype.ref_of_string "org.eclipse.jdt.core.dom.ASTNode" in
  List.iter
    (fun strategy ->
      let name = Query.strategy_to_string strategy in
      let settings slack = { Query.default_settings with slack; strategy } in
      let single slack =
        let rs, info =
          Query.run_info ~settings:(settings slack) ~frozen ~hierarchy { Query.tin; tout }
        in
        (List.map (fun (r : Query.result) -> r.Query.code) rs, info.Query.truncated)
      in
      let multi slack =
        Query.run_multi ~settings:(settings slack) ~frozen ~hierarchy ~vars:[ ("f", tin) ]
          ~tout ()
        |> List.map (fun (m : Query.multi_result) ->
               (m.Query.source_var, m.Query.result.Query.code))
      in
      check_bool (name ^ ": answers") true (fst (single n) <> []);
      check_bool (name ^ ": run, max_int = node count") true (single max_int = single n);
      check_bool (name ^ ": run_multi answers") true (multi n <> []);
      check_bool (name ^ ": run_multi, max_int = node count") true
        (multi max_int = multi n))
    [ Query.BestFirst; Query.Exhaustive ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core_query"
    [
      ( "codegen",
        [
          tc "var names" test_var_name_of_type;
          tc "parsing example" test_codegen_parsing_example;
          tc "free variable declared" test_codegen_free_variable_declared;
          tc "named input" test_codegen_named_input;
          tc "unique names" test_codegen_unique_names;
        ] );
      ( "query",
        [
          tc "faq270 both steps" test_query_faq270_both_steps;
          tc "no path" test_query_no_path;
          tc "unknown type" test_query_unknown_type;
          tc "max results" test_query_max_results;
          tc "results sorted" test_query_results_sorted;
          tc "slack past max_int is no bound" test_query_unbounded_slack;
        ] );
      ( "assist",
        [
          tc "void source" test_assist_finds_registry_via_void;
          tc "uses variable" test_assist_uses_variable;
          tc "two vars same type" test_assist_two_vars_same_type;
          tc "direct variable" test_assist_direct_variable;
        ] );
    ]
