(* Additional coverage: DOT export, Stats, Query.parse edge cases, the
   per-source search semantics, codegen corners, and the legacy-collections
   mining idioms of Section 4.1. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Search = Prospector.Search
module Sig_graph = Prospector.Sig_graph
module Query = Prospector.Query
module Dot = Prospector.Dot
module Elem = Prospector.Elem

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let load = Japi.Loader.load_string

(* ---------- Dot ---------- *)

let dot_model () =
  load
    {|
    package d;
    class A { B toB(); }
    class B extends A { }
    |}

let test_dot_full_is_digraph () =
  let g = Sig_graph.build (dot_model ()) in
  let dot = Dot.full g in
  check_bool "digraph" true (contains ~sub:"digraph" dot);
  check_bool "node A" true (contains ~sub:"label=\"A\"" dot);
  check_bool "edge label" true (contains ~sub:"toB" dot);
  check_bool "widen dotted" true (contains ~sub:"style=dotted" dot)

let test_dot_subgraph_radius () =
  let h =
    load "package d; class A { B toB(); } class B { C toC(); } class C { }"
  in
  let g = Sig_graph.build h in
  let r1 = Dot.subgraph g ~centers:[ Jtype.ref_of_string "d.A" ] ~radius:1 in
  check_bool "radius 1 contains B" true (contains ~sub:"label=\"B\"" r1);
  check_bool "radius 1 omits C" false (contains ~sub:"label=\"C\"" r1);
  let r2 = Dot.subgraph g ~centers:[ Jtype.ref_of_string "d.A" ] ~radius:2 in
  check_bool "radius 2 contains C" true (contains ~sub:"label=\"C\"" r2)

let test_dot_typestate_dashed () =
  let g, _ = Apidata.Api.jungloid_graph () in
  let dot = Dot.full g in
  check_bool "typestates dashed" true (contains ~sub:"style=dashed" dot);
  check_bool "downcast penwidth" true (contains ~sub:"penwidth=2" dot)

let test_dot_of_paths_highlights_first () =
  let h = dot_model () in
  let g = Sig_graph.build h in
  let src = Option.get (Graph.find_type_node g (Jtype.ref_of_string "d.A")) in
  let dst = Option.get (Graph.find_type_node g (Jtype.ref_of_string "d.B")) in
  let paths =
    Search.Csr.enumerate_per_source (Graph.freeze g) ~sources:[ src ] ~target:dst ()
  in
  let dot = Dot.of_paths g paths in
  check_bool "bold highlight" true (contains ~sub:"color=red" dot)

(* ---------- Query.parse / query edge cases ---------- *)

let test_query_parse_array_types () =
  let h = load "package p; class A { byte[] data(); } class B { B wrap(byte[] raw); }" in
  let g = Sig_graph.build h in
  (* query with an array tout written with [] suffix *)
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "p.A" "byte[]") in
  check_bool "array tout" true (rs <> []);
  check_bool "uses data()" true (contains ~sub:".data()" (List.hd rs).Query.code)

let test_query_void_to_void_empty () =
  let h = load "package p; class A { }" in
  let g = Sig_graph.build h in
  check_int "void-void" 0 (List.length (Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "void" "void")))

let test_query_same_type_no_identity () =
  let h = load "package p; class A { p.A clone2(); }" in
  let g = Sig_graph.build h in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "p.A" "p.A") in
  (* no identity jungloid; only real chains like clone2 twice are cyclic, so
     the only candidate is a single call... which ends at A again. *)
  List.iter
    (fun r -> check_bool "has code" true (String.length r.Query.code > 0))
    rs

(* ---------- per-source search semantics ---------- *)

let test_per_source_budgets_independent () =
  let h =
    load
      {|
      package p;
      class Target { static Target cheap(); }
      class Far { M1 mid(); }
      class M1 { M2 next(); }
      class M2 { Target toT(); }
      |}
  in
  let g = Sig_graph.build h in
  let far = Option.get (Graph.find_type_node g (Jtype.ref_of_string "p.Far")) in
  let void = Graph.void_node g in
  let target = Option.get (Graph.find_type_node g (Jtype.ref_of_string "p.Target")) in
  (* The void source's cost-1 path must not suppress Far's cost-2 path:
     each source has its own budget, and both are served. *)
  let fz = Graph.freeze g in
  let per = Search.Csr.enumerate_per_source fz ~sources:[ void; far ] ~target () in
  check_bool "per-source = naive" true
    (per = Naive.enumerate_per_source g ~sources:[ void; far ] ~target ());
  let from_far =
    List.filter (fun (p : Search.path) -> p.Search.source = far) per
  in
  check_bool "per-source budget serves Far" true (from_far <> [])

(* ---------- codegen corners ---------- *)

let test_codegen_static_field () =
  let h = load "package p; class K { static K INSTANCE; }" in
  let g = Sig_graph.build h in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "void" "p.K") in
  check_bool "found" true (rs <> []);
  check_bool "static field access" true (contains ~sub:"K.INSTANCE" (List.hd rs).Query.code)

let test_codegen_instance_field () =
  let h = load "package p; class A { B child; } class B { }" in
  let g = Sig_graph.build h in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "p.A" "p.B") in
  check_bool "found" true (rs <> []);
  check_bool "field read" true (contains ~sub:".child" (List.hd rs).Query.code)

let test_codegen_void_input_no_x () =
  let h = load "package p; class F { static F make(); }" in
  let g = Sig_graph.build h in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "void" "p.F") in
  let top = List.hd rs in
  check_string "code" "F f = F.make();\n" top.Query.code

(* ---------- legacy-collections mining (Section 4.1) ---------- *)

let test_legacy_zip_entries_mined () =
  let g = Apidata.Api.default_graph () in
  let h = Apidata.Api.hierarchy () in
  let settings = { Query.default_settings with slack = 2 } in
  let rs =
    Query.run ~settings ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "java.util.zip.ZipFile" "java.util.zip.ZipEntry")
  in
  check_bool "mined enumeration route present" true
    (List.exists
       (fun r ->
         contains ~sub:".entries()" r.Query.code
         && contains ~sub:"(ZipEntry)" r.Query.code)
       rs)

let test_legacy_vector_element_mined () =
  let g = Apidata.Api.default_graph () in
  let h = Apidata.Api.hierarchy () in
  let rs =
    Query.run ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "java.util.Vector" "org.eclipse.core.resources.IFile")
  in
  check_bool "found" true (rs <> []);
  check_bool "elementAt cast" true
    (List.exists
       (fun r ->
         contains ~sub:".elementAt(" r.Query.code && contains ~sub:"(IFile)" r.Query.code)
       rs)

let test_legacy_string_cast_not_overgeneralized () =
  (* The (String) names.nextElement() example must not bless casting any
     Object to String from unrelated producers: the suffix keeps the
     propertyNames() step (it conflicts with the ZipEntry cast through the
     shared nextElement elem). *)
  let prog = Apidata.Api.program () in
  let df = Mining.Dataflow.build prog in
  let examples = Mining.Generalize.run (Mining.Extract.extract df) in
  let string_casts =
    List.filter
      (fun (ex : Mining.Extract.example) ->
        match List.rev ex.Mining.Extract.elems with
        | Elem.Downcast { to_; _ } :: _ -> Jtype.equal to_ Jtype.string_t
        | _ -> false)
      examples
  in
  check_bool "string-cast example exists" true (string_casts <> []);
  List.iter
    (fun (ex : Mining.Extract.example) ->
      check_bool "keeps a producer step" true (List.length ex.Mining.Extract.elems >= 2))
    string_casts

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core_more"
    [
      ( "dot",
        [
          tc "full digraph" test_dot_full_is_digraph;
          tc "subgraph radius" test_dot_subgraph_radius;
          tc "typestate dashed" test_dot_typestate_dashed;
          tc "path highlight" test_dot_of_paths_highlights_first;
        ] );
      ( "query edges",
        [
          tc "array types" test_query_parse_array_types;
          tc "void to void" test_query_void_to_void_empty;
          tc "same type" test_query_same_type_no_identity;
          tc "per-source budgets" test_per_source_budgets_independent;
        ] );
      ( "codegen corners",
        [
          tc "static field" test_codegen_static_field;
          tc "instance field" test_codegen_instance_field;
          tc "void input" test_codegen_void_input_no_x;
        ] );
      ( "legacy collections",
        [
          tc "zip entries mined" test_legacy_zip_entries_mined;
          tc "vector element mined" test_legacy_vector_element_mined;
          tc "string cast kept specific" test_legacy_string_cast_not_overgeneralized;
        ] );
    ]
