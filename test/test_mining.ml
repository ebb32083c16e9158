(* Tests for jungloid mining: extraction (Figure 4/5), generalization
   (Figure 7), jungloid-graph enrichment (Figure 6), and the Section 4.3
   Object/String-parameter extension. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Elem = Prospector.Elem
module Graph = Prospector.Graph
module Sig_graph = Prospector.Sig_graph
module Query = Prospector.Query
module Jungloid = Prospector.Jungloid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------- the Figure 2/4 debugger model ---------- *)

let debug_api () =
  Japi.Loader.load_string
    {|
    package org.eclipse.debug.ui;
    interface IDebugView { Viewer getViewer(); Object getAdapter(Class c); }
    class Viewer { ISelection getSelection(); Object getInput(); }
    interface ISelection { boolean isEmpty(); }
    interface IStructuredSelection extends ISelection { Object getFirstElement(); }
    class JavaInspectExpression { }
    interface IWorkbenchPage { IWorkbenchPart getActivePart(); ISelection getSelection(); }
    interface IWorkbenchPart { Object getAdapter(Class c); }
    class JDIDebugUIPlugin { static IWorkbenchPage getActivePage(); }
    interface IJavaObject { }
    class Unrelated { Object randomThing(); }
    |}

let figure4_corpus =
  {|
  package corpus;
  class GetContext {
    protected IJavaObject getObjectContext() {
      IWorkbenchPage page = JDIDebugUIPlugin.getActivePage();
      IWorkbenchPart activePart = page.getActivePart();
      IDebugView view = (IDebugView) activePart.getAdapter(IDebugView.class);
      ISelection s = view.getViewer().getSelection();
      IStructuredSelection sel = (IStructuredSelection) s;
      Object selection = sel.getFirstElement();
      JavaInspectExpression var = (JavaInspectExpression) selection;
      return null;
    }
  }
  |}

let debug_program () =
  Minijava.Resolve.parse_program ~api:(debug_api ()) [ ("fig4.java", figure4_corpus) ]

let df () = Mining.Dataflow.build (debug_program ())

(* ---------- Dataflow ---------- *)

let test_dataflow_casts_found () =
  check_int "three casts" 3 (List.length (Mining.Dataflow.casts (df ())))

let test_dataflow_var_producers () =
  let d = df () in
  let key = "corpus.GetContext.getObjectContext/0" in
  check_int "page has one producer" 1
    (List.length (Mining.Dataflow.var_producers d ~method_key:key ~var:"page"));
  check_int "unknown var has none" 0
    (List.length (Mining.Dataflow.var_producers d ~method_key:key ~var:"nope"))

let test_dataflow_param_wiring () =
  let api = debug_api () in
  let p =
    Minijava.Resolve.parse_program ~api
      [
        ( "x.java",
          {|
          package corpus;
          class A {
            static Viewer viewerOf(IDebugView v) { return v.getViewer(); }
            void use(IDebugView dv) {
              Viewer vw = A.viewerOf(dv);
            }
          }
          |} );
      ]
  in
  let d = Mining.Dataflow.build p in
  let producers =
    Mining.Dataflow.param_producers d ~method_key:"corpus.A.viewerOf/1" ~var:"v"
  in
  check_int "argument wired to param" 1 (List.length producers)

(* ---------- Extraction (Figures 4 and 5) ---------- *)

let test_extract_figure4 () =
  let examples = Mining.Extract.extract (df ()) in
  check_bool "some examples" true (examples <> []);
  let h = (debug_program ()).Minijava.Tast.hierarchy in
  List.iter
    (fun ex ->
      check_bool
        (Printf.sprintf "well-typed: %s"
           (Jungloid.to_string
              (Jungloid.make ~input:ex.Mining.Extract.input ex.Mining.Extract.elems)))
        true
        (Mining.Extract.example_well_typed h ex))
    examples;
  (* The JavaInspectExpression example reaches back to the zero-argument
     static call, so its input is void (Figure 4's full backward slice). *)
  let jie =
    List.filter
      (fun ex ->
        match List.rev ex.Mining.Extract.elems with
        | Elem.Downcast { to_; _ } :: _ ->
            Jtype.to_string to_ = "org.eclipse.debug.ui.JavaInspectExpression"
        | _ -> false)
      examples
  in
  check_int "one full example for the final cast" 1 (List.length jie);
  let ex = List.hd jie in
  check_bool "void input" true (Jtype.equal ex.Mining.Extract.input Jtype.Void);
  (* It contains both intermediate casts. *)
  let casts =
    List.filter Elem.is_downcast ex.Mining.Extract.elems |> List.length
  in
  check_int "three casts in chain" 3 casts

let test_extract_ends_with_cast () =
  let examples = Mining.Extract.extract (df ()) in
  List.iter
    (fun ex ->
      match List.rev ex.Mining.Extract.elems with
      | last :: _ -> check_bool "ends with downcast" true (Elem.is_downcast last)
      | [] -> Alcotest.fail "empty example")
    examples

let test_extract_cap () =
  (* A branchy corpus: the cast operand flows from many producers. *)
  let api =
    Japi.Loader.load_string
      {|
      package p;
      class Box { Object get(); static Box make(); }
      class Special { }
      |}
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package corpus;\nclass C {\n  void f() {\n";
  Buffer.add_string buf "    Object o = null;\n";
  for _ = 1 to 10 do
    Buffer.add_string buf "    o = Box.make().get();\n"
  done;
  Buffer.add_string buf "    Special sp = (Special) o;\n  }\n}\n";
  let p = Minijava.Resolve.parse_program ~api [ ("c.java", Buffer.contents buf) ] in
  let d = Mining.Dataflow.build p in
  let all = Mining.Extract.extract d in
  check_int "ten examples uncapped" 10 (List.length all);
  let capped = Mining.Extract.extract ~max_per_cast:3 d in
  check_bool "capped to at most 3" true (List.length capped <= 3)

let test_extract_max_len () =
  let examples = Mining.Extract.extract ~max_len:2 (df ()) in
  (* The full 8-elem chain is suppressed; short tails survive. *)
  List.iter
    (fun ex ->
      let len =
        List.length (List.filter (fun e -> not (Elem.is_widen e)) ex.Mining.Extract.elems)
      in
      check_bool "within bound" true (len <= 2))
    examples

let test_extract_inlines_client_methods () =
  let api = debug_api () in
  let p =
    Minijava.Resolve.parse_program ~api
      [
        ( "x.java",
          {|
          package corpus;
          class Helper {
            static ISelection fetch(IDebugView v) { return v.getViewer().getSelection(); }
          }
          class User {
            void use(IDebugView dv) {
              IStructuredSelection ss = (IStructuredSelection) Helper.fetch(dv);
            }
          }
          |} );
      ]
  in
  let d = Mining.Dataflow.build p in
  let examples = Mining.Extract.extract d in
  check_int "one example" 1 (List.length examples);
  let ex = List.hd examples in
  (* The Helper.fetch frame disappeared: elems are the API calls only. *)
  check_bool "no elem mentions Helper" true
    (List.for_all
       (fun e ->
         match Elem.owner_package e with
         | Some pkg -> pkg <> "corpus"
         | None -> true)
       ex.Mining.Extract.elems);
  check_string "input is the debug view" "org.eclipse.debug.ui.IDebugView"
    (Jtype.to_string ex.Mining.Extract.input)

let test_extract_null_produces_nothing () =
  let api = Japi.Loader.load_string "package p; class A { } class B extends A { }" in
  let p =
    Minijava.Resolve.parse_program ~api
      [
        ( "x.java",
          "package corpus; class C { void f() { A a = null; B b = (B) a; } }" );
      ]
  in
  let d = Mining.Dataflow.build p in
  check_int "no examples from null" 0 (List.length (Mining.Extract.extract d))

let test_extract_through_client_field () =
  (* A value cached in a corpus class's instance field: the slicer follows
     the corpus-wide assignments to the field (flow-insensitively). *)
  let api = debug_api () in
  let prog =
    Minijava.Resolve.parse_program ~api
      [
        ( "cache.java",
          {|
          package corpus;
          class Cache {
            ISelection held;
            void put(IWorkbenchPage page) { held = page.getSelection(); }
            Object get() {
              IStructuredSelection sel = (IStructuredSelection) held;
              return sel.getFirstElement();
            }
          }
          |} );
      ]
  in
  let df = Mining.Dataflow.build prog in
  let examples = Mining.Extract.extract df in
  check_int "one example" 1 (List.length examples);
  let ex = List.hd examples in
  check_string "traced through the field to the page" "org.eclipse.debug.ui.IWorkbenchPage"
    (Jtype.to_string ex.Mining.Extract.input)

let test_extract_through_while_loop () =
  let api =
    Japi.Loader.load_string
      {|
      package p;
      class Source { Object next(); boolean hasNext(); static Source open(); }
      class Item { }
      |}
  in
  let prog =
    Minijava.Resolve.parse_program ~api
      [
        ( "loop.java",
          {|
          package corpus;
          class Drainer {
            void drain() {
              Source src = Source.open();
              while (src.hasNext()) {
                Item item = (Item) src.next();
              }
            }
          }
          |} );
      ]
  in
  let df = Mining.Dataflow.build prog in
  let examples = Mining.Extract.extract df in
  check_int "one example from inside the loop" 1 (List.length examples);
  check_bool "void input (full chain from Source.open)" true
    (Jtype.equal (List.hd examples).Mining.Extract.input Jtype.Void)

(* ---------- Generalization (Figure 7) ---------- *)

(* Build examples programmatically over a small API. *)
let gen_api () =
  Japi.Loader.load_string
    {|
    package g;
    class X {
      M1 m1();
      M2 m2();
      Shared shared0();
    }
    class M1 { Shared shared(); }
    class M2 { Shared shared(); }
    class Shared { Object get(); }
    class T { }
    class U { }
    |}

let call h cls name =
  let d = Hierarchy.find h (Qname.of_string ("g." ^ cls)) in
  let m =
    List.find (fun (m : Javamodel.Member.meth) -> m.mname = name) d.Javamodel.Decl.methods
  in
  Elem.Instance_call { owner = d.Javamodel.Decl.dname; meth = m; input = Elem.Receiver }

let cast target = Elem.Downcast { from_ = Jtype.object_t; to_ = Jtype.ref_of_string ("g." ^ target) }

let mk_example _h ~origin chain target =
  let elems = chain @ [ cast target ] in
  {
    Mining.Extract.input = Elem.input_type (List.hd elems);
    elems;
    origin;
  }

let test_generalize_distinguishes_casts () =
  let h = gen_api () in
  (* ex1: x.m1().shared().get() cast T
     ex2: x.m2().shared().get() cast U
     Both share the suffix shared().get(); retention must keep m1/m2. *)
  let ex1 =
    mk_example h ~origin:"e1" [ call h "X" "m1"; call h "M1" "shared"; call h "Shared" "get" ] "T"
  in
  let ex2 =
    mk_example h ~origin:"e2" [ call h "X" "m2"; call h "M2" "shared"; call h "Shared" "get" ] "U"
  in
  (* the two shared() elems differ (declared in M1 vs M2), so the trie
     diverges at depth 2 *)
  let lens = Mining.Generalize.suffix_lengths [ ex1; ex2 ] in
  Alcotest.(check (list int)) "retained depths" [ 2; 2 ] lens

let test_generalize_same_shared_elem () =
  let h = gen_api () in
  (* Here the pre-cast elems are literally the same call (Shared.get), so
     the divergence is one step further back. *)
  let ex1 =
    mk_example h ~origin:"e1" [ call h "X" "m1"; call h "M1" "shared"; call h "Shared" "get" ] "T"
  in
  let ex2 =
    mk_example h ~origin:"e2"
      [ call h "X" "m2"; call h "M2" "shared"; call h "Shared" "get" ] "U"
  in
  (* identical final elems, divergent second-to-last *)
  let lens = Mining.Generalize.suffix_lengths [ ex1; ex2 ] in
  List.iter (fun l -> check_bool "keeps through divergence" true (l >= 2)) lens

let test_generalize_no_conflict_min_keep () =
  let h = gen_api () in
  let ex =
    mk_example h ~origin:"e1" [ call h "X" "m1"; call h "M1" "shared"; call h "Shared" "get" ] "T"
  in
  Alcotest.(check (list int)) "single example keeps min_keep" [ 1 ]
    (Mining.Generalize.suffix_lengths [ ex ]);
  Alcotest.(check (list int)) "pure algorithm keeps none" [ 0 ]
    (Mining.Generalize.suffix_lengths ~min_keep:0 [ ex ])

let test_generalize_cut_updates_input () =
  let h = gen_api () in
  let ex =
    mk_example h ~origin:"e1" [ call h "X" "m1"; call h "M1" "shared"; call h "Shared" "get" ] "T"
  in
  let g = List.hd (Mining.Generalize.run [ ex ]) in
  (* retained: get() + cast, so the input is Shared *)
  check_string "input updated" "g.Shared" (Jtype.to_string g.Mining.Extract.input);
  check_int "two elems" 2 (List.length g.Mining.Extract.elems)

let test_generalize_dedupes () =
  let h = gen_api () in
  let ex1 =
    mk_example h ~origin:"e1" [ call h "X" "m1"; call h "M1" "shared"; call h "Shared" "get" ] "T"
  in
  let ex2 =
    mk_example h ~origin:"e2" [ call h "X" "shared0"; ] "T"
  in
  ignore ex2;
  (* two copies of the same example generalize to one suffix *)
  let out = Mining.Generalize.run [ ex1; { ex1 with origin = "e1b" } ] in
  check_int "deduplicated" 1 (List.length out)

let test_generalize_figure7_ant () =
  (* Figure 7 verbatim: two example jungloids reach their casts through the
     shared suffix Project.getTargets().get(i) (area III); they diverge at
     the step that produced the Project (area II), so generalization keeps
     area II + III and drops area I. *)
  let hh =
    Japi.Loader.load_string
      {|
      package g;
      class Antx {
        Project readProject(String f);
        Project defaultProject();
      }
      class Project { TargetList getTargets(); }
      class TargetList { Object get(int i); }
      class Target { }
      class Task { }
      |}
  in
  let call cls name =
    let d = Hierarchy.find hh (Qname.of_string ("g." ^ cls)) in
    let m =
      List.find (fun (m : Javamodel.Member.meth) -> m.mname = name)
        d.Javamodel.Decl.methods
    in
    Elem.Instance_call { owner = d.Javamodel.Decl.dname; meth = m; input = Elem.Receiver }
  in
  let cast target =
    Elem.Downcast { from_ = Jtype.object_t; to_ = Jtype.ref_of_string ("g." ^ target) }
  in
  (* area I: how the Project was obtained; area II: the divergent producer;
     area III: getTargets().get(i). *)
  let ex_target =
    {
      Mining.Extract.input = Jtype.ref_of_string "g.Antx";
      elems =
        [
          call "Antx" "readProject"; call "Project" "getTargets";
          call "TargetList" "get"; cast "Target";
        ];
      origin = "e1";
    }
  in
  let ex_task =
    {
      Mining.Extract.input = Jtype.ref_of_string "g.Antx";
      elems =
        [
          call "Antx" "defaultProject"; call "Project" "getTargets";
          call "TargetList" "get"; cast "Task";
        ];
      origin = "e2";
    }
  in
  let lens = Mining.Generalize.suffix_lengths [ ex_target; ex_task ] in
  (* the shared 2-elem suffix matches exactly, so the divergent producer
     (area II) must be retained: depth 3 *)
  Alcotest.(check (list int)) "retain through the divergence" [ 3; 3 ] lens;
  List.iter
    (fun (g : Mining.Extract.example) ->
      check_string "suffix starts at the producer's input" "g.Antx"
        (Jtype.to_string g.Mining.Extract.input))
    (Mining.Generalize.run [ ex_target; ex_task ])

(* ---------- Enrichment (Figure 6) and end-to-end queries ---------- *)

let jungloid_graph () =
  let prog = debug_program () in
  let h = prog.Minijava.Tast.hierarchy in
  let g = Sig_graph.build h in
  let stats = Mining.Enrich.enrich g prog in
  (g, h, stats)

let test_enrich_stats () =
  let _, _, stats = jungloid_graph () in
  check_int "three casts" 3 stats.Mining.Enrich.casts_in_corpus;
  check_bool "examples extracted" true (stats.Mining.Enrich.examples_extracted >= 3);
  check_bool "edges added" true (stats.Mining.Enrich.edges_added > 0);
  check_bool "typestates added" true (stats.Mining.Enrich.typestate_nodes_added > 0)

let test_enrich_enables_downcast_query () =
  let g, h, _ = jungloid_graph () in
  let q =
    Query.query "org.eclipse.debug.ui.IDebugView"
      "org.eclipse.debug.ui.JavaInspectExpression"
  in
  match Query.run ~frozen:(Query.freeze g) ~hierarchy:h q with
  | [] -> Alcotest.fail "expected mined jungloid for (IDebugView, JavaInspectExpression)"
  | top :: _ ->
      check_bool "goes through getViewer" true
        (contains ~sub:"getViewer()" top.Query.code);
      check_bool "casts to IStructuredSelection" true
        (contains ~sub:"(IStructuredSelection)" top.Query.code);
      check_bool "ends casting to JavaInspectExpression" true
        (contains ~sub:"(JavaInspectExpression)" top.Query.code)

let test_enrich_no_spurious_downcasts () =
  let g, h, _ = jungloid_graph () in
  (* Unrelated.randomThing() returns Object, but no example blesses casting
     that Object to JavaInspectExpression: the query must find nothing. *)
  let q =
    Query.query "org.eclipse.debug.ui.Unrelated"
      "org.eclipse.debug.ui.JavaInspectExpression"
  in
  check_int "no inviable jungloid" 0 (List.length (Query.run ~frozen:(Query.freeze g) ~hierarchy:h q))

let test_enrich_typestates_not_reentrant () =
  let g, _, _ = jungloid_graph () in
  (* Typestate nodes must have exactly one outgoing example edge. *)
  List.iter
    (fun n ->
      if Graph.is_typestate g n then
        check_int "one successor" 1 (List.length (Graph.succs g n)))
    (Graph.nodes g)

let test_figure3_contrast () =
  (* With all downcasts added naively, the spurious query succeeds — the
     contrast the paper draws between Figure 3 and the jungloid graph. *)
  let prog = debug_program () in
  let h = prog.Minijava.Tast.hierarchy in
  let g = Sig_graph.build h in
  ignore (Sig_graph.add_all_downcasts g h);
  let q =
    Query.query "org.eclipse.debug.ui.Unrelated"
      "org.eclipse.debug.ui.JavaInspectExpression"
  in
  check_bool "naive graph synthesizes the inviable jungloid" true
    (Query.run ~frozen:(Query.freeze g) ~hierarchy:h q <> [])

(* ---------- Section 4.3: Object/String parameters ---------- *)

let objparam_api () =
  Japi.Loader.load_string
    {|
    package p;
    class Engine { static Result process(Object model); }
    class Result { }
    class GoodModel { static GoodModel make(); }
    class BadModel { static BadModel make(); }
    |}

let objparam_corpus =
  {|
  package corpus;
  class Client {
    void run() {
      GoodModel gm = GoodModel.make();
      Result r = Engine.process(gm);
    }
  }
  |}

let test_objparam_restricted_graph () =
  let api = objparam_api () in
  let config = { Sig_graph.default_config with restrict_obj_string_params = true } in
  let g = Sig_graph.build ~config api in
  let q = Query.query "p.GoodModel" "p.Result" in
  check_int "restricted: no signature path" 0
    (List.length (Query.run ~frozen:(Query.freeze g) ~hierarchy:api q))

let test_objparam_mining_readds_viable () =
  let api = objparam_api () in
  let prog = Minijava.Resolve.parse_program ~api [ ("c.java", objparam_corpus) ] in
  let h = prog.Minijava.Tast.hierarchy in
  let config = { Sig_graph.default_config with restrict_obj_string_params = true } in
  let g = Sig_graph.build ~config h in
  let stats = Mining.Objparam.enrich g prog in
  check_bool "sites found" true (stats.Mining.Objparam.sites >= 1);
  check_bool "edges added" true (stats.Mining.Objparam.edges_added > 0);
  let good = Query.query "p.GoodModel" "p.Result" in
  check_bool "good model synthesizable" true (Query.run ~frozen:(Query.freeze g) ~hierarchy:h good <> []);
  let bad = Query.query "p.BadModel" "p.Result" in
  check_int "bad model still blocked" 0 (List.length (Query.run ~frozen:(Query.freeze g) ~hierarchy:h bad))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mining"
    [
      ( "dataflow",
        [
          tc "casts found" test_dataflow_casts_found;
          tc "var producers" test_dataflow_var_producers;
          tc "param wiring" test_dataflow_param_wiring;
        ] );
      ( "extract",
        [
          tc "figure 4" test_extract_figure4;
          tc "ends with cast" test_extract_ends_with_cast;
          tc "cap" test_extract_cap;
          tc "max length" test_extract_max_len;
          tc "inlines client methods" test_extract_inlines_client_methods;
          tc "null dead end" test_extract_null_produces_nothing;
          tc "through client field" test_extract_through_client_field;
          tc "through while loop" test_extract_through_while_loop;
        ] );
      ( "generalize",
        [
          tc "distinguishes casts" test_generalize_distinguishes_casts;
          tc "same shared elem" test_generalize_same_shared_elem;
          tc "min_keep" test_generalize_no_conflict_min_keep;
          tc "cut updates input" test_generalize_cut_updates_input;
          tc "dedupes" test_generalize_dedupes;
          tc "figure 7 ant example" test_generalize_figure7_ant;
        ] );
      ( "enrich",
        [
          tc "stats" test_enrich_stats;
          tc "enables downcast query" test_enrich_enables_downcast_query;
          tc "no spurious downcasts" test_enrich_no_spurious_downcasts;
          tc "typestates linear" test_enrich_typestates_not_reentrant;
          tc "figure 3 contrast" test_figure3_contrast;
        ] );
      ( "objparam",
        [
          tc "restricted graph" test_objparam_restricted_graph;
          tc "mining re-adds viable" test_objparam_mining_readds_viable;
        ] );
    ]
