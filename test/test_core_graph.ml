(* Tests for Elem, Graph, and Sig_graph: elementary jungloid derivation and
   signature-graph construction (paper Sections 2.1 and 3.1). *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Builder = Javamodel.Builder
module Elem = Prospector.Elem
module Graph = Prospector.Graph
module Sig_graph = Prospector.Sig_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let q = Qname.of_string

(* The FAQ 270 model from Section 2.2. *)
let faq270 () =
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

(* ---------- Elem ---------- *)

let sample_meth =
  Member.meth "convert"
    ~params:[ ("a", Jtype.ref_of_string "p.A"); ("n", Jtype.Prim Jtype.Int) ]
    ~ret:(Jtype.ref_of_string "p.B")

let test_elem_instance_receiver () =
  let e = Elem.Instance_call { owner = q "p.C"; meth = sample_meth; input = Elem.Receiver } in
  check_string "input" "p.C" (Jtype.to_string (Elem.input_type e));
  check_string "output" "p.B" (Jtype.to_string (Elem.output_type e));
  check_int "frees: a and n" 2 (List.length (Elem.free_vars e));
  check_int "cost" 1 (Elem.cost e)

let test_elem_instance_param () =
  let e = Elem.Instance_call { owner = q "p.C"; meth = sample_meth; input = Elem.Param 0 } in
  check_string "input is param type" "p.A" (Jtype.to_string (Elem.input_type e));
  let frees = Elem.free_vars e in
  check_int "frees: receiver and n" 2 (List.length frees);
  check_bool "receiver free" true
    (List.exists (fun (n, _) -> n = "receiver") frees)

let test_elem_static_no_input () =
  let m = Member.meth ~static:true "getDefault" ~params:[] ~ret:(Jtype.ref_of_string "p.R") in
  let e = Elem.Static_call { owner = q "p.R"; meth = m; input = Elem.No_input } in
  check_bool "void input" true (Jtype.equal (Elem.input_type e) Jtype.Void);
  check_int "no frees" 0 (List.length (Elem.free_vars e))

let test_elem_widen_cost_zero () =
  let e = Elem.Widen { from_ = Jtype.ref_of_string "p.A"; to_ = Jtype.object_t } in
  check_int "cost 0" 0 (Elem.cost e);
  check_bool "is_widen" true (Elem.is_widen e);
  check_bool "no package" true (Elem.owner_package e = None)

let test_elem_field_static_vs_instance () =
  let fi = Elem.Field_access { owner = q "p.C"; field = Member.field "f" (Jtype.ref_of_string "p.A") } in
  check_string "instance input" "p.C" (Jtype.to_string (Elem.input_type fi));
  let fs =
    Elem.Field_access
      { owner = q "p.C"; field = Member.field ~static:true "g" (Jtype.ref_of_string "p.A") }
  in
  check_bool "static field void input" true (Jtype.equal (Elem.input_type fs) Jtype.Void)

(* ---------- elems_of_decl ---------- *)

let find_decl h name = Hierarchy.find h (q name)

let test_elems_of_decl_registry () =
  let h = faq270 () in
  let elems = Sig_graph.elems_of_decl (find_decl h "org.eclipse.ui.DocumentProviderRegistry") in
  (* getDefault: void -> Registry; getDocumentProvider: receiver + param 0 *)
  check_int "three elems" 3 (List.length elems);
  let inputs = List.map (fun e -> Jtype.to_string (Elem.input_type e)) elems in
  check_bool "has void" true (List.mem "void" inputs);
  check_bool "has registry receiver" true
    (List.mem "org.eclipse.ui.DocumentProviderRegistry" inputs);
  check_bool "has editor input param" true (List.mem "org.eclipse.ui.IEditorInput" inputs)

let test_elems_skip_private_and_prim_returns () =
  let h =
    Japi.Loader.load_string
      {|
      package p;
      class C {
        private p.C secret();
        int count();
        void run();
        p.C self();
      }
      |}
  in
  let elems = Sig_graph.elems_of_decl (find_decl h "p.C") in
  check_int "only self()" 1 (List.length elems)

let test_elems_protected_config () =
  let h =
    Japi.Loader.load_string "package p; class C { protected p.C clone2(); }"
  in
  let d = find_decl h "p.C" in
  check_int "default skips protected" 0 (List.length (Sig_graph.elems_of_decl d));
  let config = { Sig_graph.default_config with include_protected = true } in
  check_int "config includes protected" 1 (List.length (Sig_graph.elems_of_decl ~config d))

let test_elems_abstract_class_no_ctor () =
  let h =
    Japi.Loader.load_string
      "package p; abstract class A { A(); } class B extends A { B(); }"
  in
  check_int "abstract: no ctor elem" 0
    (List.length (Sig_graph.elems_of_decl (find_decl h "p.A")));
  check_int "concrete: ctor elem" 1
    (List.length (Sig_graph.elems_of_decl (find_decl h "p.B")))

let test_elems_deprecated_config () =
  let h =
    Japi.Loader.load_string "package p; class C { @Deprecated p.C old(); }"
  in
  let d = find_decl h "p.C" in
  check_int "default keeps deprecated" 1 (List.length (Sig_graph.elems_of_decl d));
  let config = { Sig_graph.default_config with include_deprecated = false } in
  check_int "config drops deprecated" 0 (List.length (Sig_graph.elems_of_decl ~config d))

(* ---------- Graph ---------- *)

let test_graph_interning () =
  let g = Graph.create () in
  let a = Graph.ensure_type_node g (Jtype.ref_of_string "p.A") in
  let a' = Graph.ensure_type_node g (Jtype.ref_of_string "p.A") in
  check_int "same id" a a';
  check_bool "find" true (Graph.find_type_node g (Jtype.ref_of_string "p.A") = Some a);
  check_bool "missing" true (Graph.find_type_node g (Jtype.ref_of_string "p.B") = None)

let test_graph_edges_dedup () =
  let g = Graph.create () in
  let a = Graph.ensure_type_node g (Jtype.ref_of_string "p.A") in
  let b = Graph.ensure_type_node g (Jtype.ref_of_string "p.B") in
  let e = Elem.Widen { from_ = Jtype.ref_of_string "p.A"; to_ = Jtype.ref_of_string "p.B" } in
  Graph.add_edge g ~src:a e ~dst:b;
  Graph.add_edge g ~src:a e ~dst:b;
  check_int "one edge" 1 (Graph.edge_count g);
  check_int "succ" 1 (List.length (Graph.succs g a));
  check_int "pred" 1 (List.length (Graph.preds g b))

let test_graph_typestate () =
  let g = Graph.create () in
  let ts = Graph.add_typestate g ~underlying:Jtype.object_t ~origin:"ex1" in
  check_bool "is typestate" true (Graph.is_typestate g ts);
  check_bool "origin" true (Graph.typestate_origin g ts = Some "ex1");
  check_bool "type" true (Jtype.equal (Graph.node_type g ts) Jtype.object_t);
  (* typestate nodes are never returned by type lookup *)
  check_bool "not interned" true (Graph.find_type_node g Jtype.object_t = None)

let test_graph_growth () =
  let g = Graph.create () in
  for i = 0 to 999 do
    ignore (Graph.ensure_type_node g (Jtype.ref_of_string (Printf.sprintf "p.C%d" i)))
  done;
  check_int "1000 nodes" 1000 (Graph.node_count g)

(* ---------- builder dedup vs the reference ---------- *)

type build_op =
  | Type of int  (* intern [types.(i)]; type 0 is the hub *)
  | Typestate of int  (* a fresh typestate node over [types.(i)] *)
  | Edge of int * int * int  (* src, dst (mod the node count), elem *)

let types =
  [|
    Jtype.ref_of_string "p.Hub";
    Jtype.ref_of_string "p.A";
    Jtype.ref_of_string "p.B";
    Jtype.object_t;
    Jtype.Void;
  |]

(* Five elems, built afresh on every call so equal ones are never the same
   block: the duplicate check must compare structurally. *)
let pool_elem i =
  let a = Jtype.ref_of_string "p.A" and b = Jtype.ref_of_string "p.B" in
  let m = Member.meth "get" ~params:[ ("x", a) ] ~ret:b in
  match i with
  | 0 -> Elem.Widen { from_ = a; to_ = b }
  | 1 -> Elem.Widen { from_ = a; to_ = Jtype.object_t }
  | 2 -> Elem.Instance_call { owner = q "p.A"; meth = m; input = Elem.Receiver }
  | 3 -> Elem.Instance_call { owner = q "p.A"; meth = m; input = Elem.Param 0 }
  | _ -> Elem.Downcast { from_ = Jtype.object_t; to_ = a }

let max_nodes = 8

(* Most edges touch the hub (node 0), so its out- and in-lists grow long
   while the other endpoint's stay short, and a repeated edge usually sits
   deep in the longer list. *)
let build_ops_gen =
  QCheck2.Gen.(
    let endpoint = frequency [ (3, return 0); (2, int_range 1 (max_nodes - 1)) ] in
    list_size (int_range 1 80)
      (frequency
         [
           (1, map (fun i -> Type i) (int_bound 4));
           (1, map (fun i -> Typestate i) (int_bound 4));
           (6, map3 (fun s d e -> Edge (s, d, e)) endpoint endpoint (int_bound 4));
         ]))

let print_build_op = function
  | Type i -> Printf.sprintf "Type %d" i
  | Typestate i -> Printf.sprintf "Typestate %d" i
  | Edge (s, d, e) -> Printf.sprintf "Edge (%d, %d, %d)" s d e

let agrees g r =
  let n = Graph.node_count g in
  n = r.Naive.b_nodes
  && Graph.edge_count g = Naive.edge_count r
  && Graph.generation g = r.Naive.b_generation
  && List.for_all
       (fun u -> Graph.succs g u = Naive.succs r u && Graph.preds g u = Naive.preds r u)
       (List.init n Fun.id)

let prop_builder_dedup =
  QCheck2.Test.make ~name:"builder dedup matches the List.exists reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map print_build_op ops))
    build_ops_gen
    (fun ops ->
      let g = Graph.create () and r = Naive.builder () in
      ignore (Graph.ensure_type_node g types.(0));
      ignore (Naive.ensure_type_node r types.(0));
      List.for_all
        (fun op ->
          let n = Graph.node_count g in
          (match op with
          | Type i ->
              if n < max_nodes || Graph.find_type_node g types.(i) <> None then begin
                ignore (Graph.ensure_type_node g types.(i));
                ignore (Naive.ensure_type_node r types.(i))
              end
          | Typestate i ->
              if n < max_nodes then begin
                ignore (Graph.add_typestate g ~underlying:types.(i) ~origin:"ex");
                ignore (Naive.add_typestate r)
              end
          | Edge (s, d, e) ->
              Graph.add_edge g ~src:(s mod n) (pool_elem e) ~dst:(d mod n);
              Naive.add_edge r ~src:(s mod n) (pool_elem e) ~dst:(d mod n));
          agrees g r)
        ops)

(* ---------- Sig_graph.build ---------- *)

let test_build_faq270 () =
  let h = faq270 () in
  let g = Sig_graph.build h in
  (* nodes for the 4 declared types + Object + void at least *)
  check_bool "editor part node" true
    (Graph.find_type_node g (Jtype.ref_of_string "org.eclipse.ui.IEditorPart") <> None);
  check_bool "void node exists" true (Graph.find_type_node g Jtype.Void <> None);
  (* widening edge from IEditorPart to Object *)
  let ep = Option.get (Graph.find_type_node g (Jtype.ref_of_string "org.eclipse.ui.IEditorPart")) in
  let widen_to_obj =
    List.exists
      (fun (e : Graph.edge) ->
        Elem.is_widen e.Graph.elem
        && Jtype.equal (Graph.node_type g e.Graph.dst) Jtype.object_t)
      (Graph.succs g ep)
  in
  check_bool "widens to Object" true widen_to_obj

let test_build_no_downcasts () =
  let h = faq270 () in
  let g = Sig_graph.build h in
  let any_downcast = ref false in
  Graph.iter_edges g (fun e -> if Elem.is_downcast e.Graph.elem then any_downcast := true);
  check_bool "no downcast edges" false !any_downcast

let test_add_all_downcasts () =
  let b = Builder.create ~default_pkg:"p" () in
  Builder.cls b "A";
  Builder.cls b "B" ~extends:"A";
  Builder.cls b "C" ~extends:"B";
  let h = Builder.hierarchy b in
  let g = Sig_graph.build h in
  let added = Sig_graph.add_all_downcasts g h in
  (* downcasts: A->B, A->C, B->C, Object->{A,B,C} = 6 *)
  check_int "six downcasts" 6 added

let test_build_array_covariance () =
  let h =
    Japi.Loader.load_string
      {|
      package p;
      class A { }
      class B extends A { B[] children(); A[] parents(); }
      |}
  in
  let g = Sig_graph.build h in
  let barr = Graph.find_type_node g (Jtype.array (Jtype.ref_of_string "p.B")) in
  let aarr = Graph.find_type_node g (Jtype.array (Jtype.ref_of_string "p.A")) in
  check_bool "B[] node" true (barr <> None);
  check_bool "A[] node" true (aarr <> None);
  let covariant =
    List.exists
      (fun (e : Graph.edge) -> e.Graph.dst = Option.get aarr && Elem.is_widen e.Graph.elem)
      (Graph.succs g (Option.get barr))
  in
  check_bool "B[] widens to A[]" true covariant;
  let to_object =
    List.exists
      (fun (e : Graph.edge) ->
        Elem.is_widen e.Graph.elem && Jtype.equal (Graph.node_type g e.Graph.dst) Jtype.object_t)
      (Graph.succs g (Option.get barr))
  in
  check_bool "B[] widens to Object" true to_object

let test_stats () =
  let h = faq270 () in
  let g = Sig_graph.build h in
  let s = Prospector.Stats.of_graph g in
  check_int "no typestates" 0 s.Prospector.Stats.typestate_nodes;
  check_bool "edges counted" true
    (s.Prospector.Stats.edges
    = s.Prospector.Stats.widen_edges + s.Prospector.Stats.call_edges
      + s.Prospector.Stats.field_edges + s.Prospector.Stats.downcast_edges);
  check_int "nodes = the builder's" (Graph.node_count g) s.Prospector.Stats.nodes;
  check_int "edges = the builder's" (Graph.edge_count g) s.Prospector.Stats.edges

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core_graph"
    [
      ( "elem",
        [
          tc "instance receiver" test_elem_instance_receiver;
          tc "instance param" test_elem_instance_param;
          tc "static no input" test_elem_static_no_input;
          tc "widen cost" test_elem_widen_cost_zero;
          tc "fields" test_elem_field_static_vs_instance;
        ] );
      ( "elems_of_decl",
        [
          tc "registry" test_elems_of_decl_registry;
          tc "private and prim returns" test_elems_skip_private_and_prim_returns;
          tc "protected config" test_elems_protected_config;
          tc "abstract no ctor" test_elems_abstract_class_no_ctor;
          tc "deprecated config" test_elems_deprecated_config;
        ] );
      ( "graph",
        [
          tc "interning" test_graph_interning;
          tc "edge dedup" test_graph_edges_dedup;
          tc "typestate" test_graph_typestate;
          tc "growth" test_graph_growth;
          QCheck_alcotest.to_alcotest prop_builder_dedup;
        ] );
      ( "sig_graph",
        [
          tc "faq270" test_build_faq270;
          tc "no downcasts" test_build_no_downcasts;
          tc "all downcasts mode" test_add_all_downcasts;
          tc "array covariance" test_build_array_covariance;
          tc "stats" test_stats;
        ] );
    ]
