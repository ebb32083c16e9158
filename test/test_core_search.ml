(* Tests for Search, Jungloid, Rank: path enumeration and the ranking
   heuristic (paper Sections 3.1 and 3.2). *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Elem = Prospector.Elem
module Graph = Prospector.Graph
module Sig_graph = Prospector.Sig_graph
module Search = Prospector.Search
module Jungloid = Prospector.Jungloid
module Rank = Prospector.Rank

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let load = Japi.Loader.load_string

let node g name = Option.get (Graph.find_type_node g (Jtype.ref_of_string name))

(* The kernels run on a snapshot of the builder graph; every call is also
   held against the naive oracle on the graph itself. *)
let shortest_cost g ~sources ~target =
  let r = Search.Csr.shortest_cost (Graph.freeze g) ~sources ~target in
  check_bool "shortest cost = naive" true
    (r = Naive.shortest_cost g ~sources ~target);
  r

let enumerate g ~sources ~target ?slack ?limit () =
  let ps =
    Search.Csr.enumerate_per_source (Graph.freeze g) ~sources ~target ?slack ?limit ()
  in
  check_bool "enumeration = naive" true
    (ps = Naive.enumerate_per_source g ~sources ~target ?slack ?limit ());
  ps

(* Linear chain A -> B -> C -> D via instance methods. *)
let chain_model () =
  load
    {|
    package p;
    class A { B toB(); }
    class B { C toC(); }
    class C { D toD(); }
    class D { }
    |}

let test_shortest_cost_chain () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  check_bool "A to D = 3" true
    (shortest_cost g ~sources:[ node g "p.A" ] ~target:(node g "p.D") = Some 3);
  check_bool "D to A unreachable" true
    (shortest_cost g ~sources:[ node g "p.D" ] ~target:(node g "p.A") = None)

let test_enumerate_chain () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  let paths = enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.D") () in
  check_int "single path" 1 (List.length paths);
  check_int "cost 3" 3 (Search.path_cost (List.hd paths))

let test_widening_costs_zero () =
  let h =
    load
      {|
      package p;
      class Sub extends Super { }
      class Super { T get(); }
      class T { }
      |}
  in
  let g = Sig_graph.build h in
  (* Sub --widen(0)--> Super --get(1)--> T : total cost 1 *)
  check_bool "cost 1 through widening" true
    (shortest_cost g ~sources:[ node g "p.Sub" ] ~target:(node g "p.T") = Some 1)

let test_slack_enumerates_longer_paths () =
  let h =
    load
      {|
      package p;
      class A { B direct(); M mid(); }
      class M { B toB(); }
      class B { }
      |}
  in
  let g = Sig_graph.build h in
  let short_only =
    enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.B") ~slack:0 ()
  in
  check_int "slack 0: one path" 1 (List.length short_only);
  let with_slack =
    enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.B") ~slack:1 ()
  in
  check_int "slack 1: two paths" 2 (List.length with_slack)

let test_acyclic_only () =
  let h =
    load
      {|
      package p;
      class A { A self(); B toB(); }
      class B { A back(); }
      |}
  in
  let g = Sig_graph.build h in
  let paths =
    enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.B") ~slack:2 ()
  in
  (* Only the direct A->B: any longer route revisits A or B. *)
  check_int "one acyclic path" 1 (List.length paths);
  List.iter
    (fun (p : Search.path) ->
      let nodes =
        p.Search.source :: List.map (fun e -> e.Graph.dst) p.Search.edges
      in
      check_int "no repeated node"
        (List.length nodes)
        (List.length (List.sort_uniq compare nodes)))
    paths

let test_multi_source () =
  let h =
    load
      {|
      package p;
      class A { T fromA(); }
      class B { M toM(); }
      class M { T toT(); }
      class T { }
      |}
  in
  let g = Sig_graph.build h in
  let sources = [ node g "p.A"; node g "p.B" ] in
  let paths = enumerate g ~sources ~target:(node g "p.T") ~slack:1 () in
  (* each source has its own budget: A's shortest is 1, B's cost-2 path is
     B's shortest *)
  check_int "both sources found" 2 (List.length paths);
  let sources_seen =
    List.sort_uniq compare (List.map (fun (p : Search.path) -> p.Search.source) paths)
  in
  check_int "two distinct sources" 2 (List.length sources_seen)

let test_limit_respected () =
  (* A dense bipartite-ish graph with many parallel length-2 paths. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package p;\nclass A {\n";
  for i = 0 to 9 do
    Buffer.add_string buf (Printf.sprintf "  M%d m%d();\n" i i)
  done;
  Buffer.add_string buf "}\nclass T { }\n";
  for i = 0 to 9 do
    Buffer.add_string buf (Printf.sprintf "class M%d { T t(); }\n" i)
  done;
  let h = load (Buffer.contents buf) in
  let g = Sig_graph.build h in
  let all = enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.T") () in
  check_int "ten paths" 10 (List.length all);
  let limited =
    enumerate g ~sources:[ node g "p.A" ] ~target:(node g "p.T") ~limit:3 ()
  in
  check_int "limit 3" 3 (List.length limited)

let test_distances_agree_with_paths () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  let fz = Graph.freeze g in
  let n = Graph.node_count g in
  let d_from = Search.distances_from g ~sources:[ node g "p.A" ] in
  let d_to =
    Search.Dist.snapshot ~n (Search.Csr.distances_to fz ~target:(node g "p.D"))
  in
  check_int "from A to C" 2 d_from.(node g "p.C");
  check_int "from C to D" 1 d_to.(node g "p.C");
  check_bool "from = naive" true
    (d_from = Naive.distances_from g ~sources:[ node g "p.A" ]);
  check_bool "to = naive" true (d_to = Naive.distances_to g ~target:(node g "p.D"))

(* ---------- Jungloid ---------- *)

let faq270 () =
  load
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

let faq_jungloid h =
  let find name = Hierarchy.find h (Qname.of_string ("org.eclipse.ui." ^ name)) in
  let ep = find "IEditorPart" in
  let reg = find "DocumentProviderRegistry" in
  let get_input = List.hd ep.Javamodel.Decl.methods in
  let get_provider =
    List.find
      (fun (m : Javamodel.Member.meth) -> m.mname = "getDocumentProvider")
      reg.Javamodel.Decl.methods
  in
  Jungloid.make
    ~input:(Jtype.ref_of_string "org.eclipse.ui.IEditorPart")
    [
      Elem.Instance_call
        { owner = ep.Javamodel.Decl.dname; meth = get_input; input = Elem.Receiver };
      Elem.Instance_call
        { owner = reg.Javamodel.Decl.dname; meth = get_provider; input = Elem.Param 0 };
    ]

let test_jungloid_faq270 () =
  let h = faq270 () in
  let j = faq_jungloid h in
  check_bool "well typed" true (Jungloid.well_typed h j);
  check_int "length 2" 2 (Jungloid.length j);
  check_int "one free var (the registry receiver)" 1 (List.length (Jungloid.free_vars j));
  check_string "output" "org.eclipse.ui.IDocumentProvider"
    (Jtype.to_string (Jungloid.output_type j));
  check_string "expression" "receiver.getDocumentProvider(x.getEditorInput())"
    (Jungloid.to_expression j)

let test_jungloid_ill_typed_detected () =
  let h = faq270 () in
  let j = faq_jungloid h in
  let backwards =
    Jungloid.make ~input:(Jungloid.input_type j) (List.rev j.Jungloid.elems)
  in
  check_bool "reversed is ill-typed" false (Jungloid.well_typed h backwards)

let test_jungloid_widen_not_counted () =
  let h = load "package p; class Sub extends Super { } class Super { T get(); } class T { }" in
  let sub = Jtype.ref_of_string "p.Sub" and sup = Jtype.ref_of_string "p.Super" in
  let get =
    List.hd (Hierarchy.find h (Qname.of_string "p.Super")).Javamodel.Decl.methods
  in
  let j =
    Jungloid.make ~input:sub
      [
        Elem.Widen { from_ = sub; to_ = sup };
        Elem.Instance_call { owner = Qname.of_string "p.Super"; meth = get; input = Elem.Receiver };
      ]
  in
  check_bool "well typed" true (Jungloid.well_typed h j);
  check_int "length 1" 1 (Jungloid.length j)

let test_jungloid_downcast_direction () =
  let h = load "package p; class A { } class B extends A { }" in
  let a = Jtype.ref_of_string "p.A" and b = Jtype.ref_of_string "p.B" in
  let down = Jungloid.make ~input:a [ Elem.Downcast { from_ = a; to_ = b } ] in
  check_bool "downcast ok" true (Jungloid.well_typed h down);
  check_bool "contains downcast" true (Jungloid.contains_downcast down);
  let up_as_down = Jungloid.make ~input:b [ Elem.Downcast { from_ = b; to_ = a } ] in
  check_bool "upcast-as-downcast rejected" false (Jungloid.well_typed h up_as_down)

(* ---------- Rank ---------- *)

let test_rank_prefers_shorter () =
  let h = faq270 () in
  let j2 = faq_jungloid h in
  let reg = Hierarchy.find h (Qname.of_string "org.eclipse.ui.DocumentProviderRegistry") in
  let get_default =
    List.find
      (fun (m : Javamodel.Member.meth) -> m.mname = "getDefault")
      reg.Javamodel.Decl.methods
  in
  let j1 =
    Jungloid.make ~input:Jtype.Void
      [ Elem.Static_call { owner = reg.Javamodel.Decl.dname; meth = get_default; input = Elem.No_input } ]
  in
  let k1 = Rank.key h j1 and k2 = Rank.key h j2 in
  check_bool "shorter first" true (Rank.compare_key k1 k2 < 0);
  check_int "j1 effective length" 1 k1.Rank.length;
  (* j2: 2 elems + 1 free var * 2 *)
  check_int "j2 effective length" 4 k2.Rank.length

let test_rank_freevar_cost () =
  let h = faq270 () in
  let j = faq_jungloid h in
  let k_default = Rank.key h j in
  let k_zero = Rank.key ~weights:{ Rank.default_weights with freevar_cost = 0 } h j in
  check_int "default charges 2" 4 k_default.Rank.length;
  check_int "zero cost" 2 k_zero.Rank.length

let test_rank_package_crossings () =
  let h =
    load
      {|
      package a;
      class A { b.B toB(); }
      |}
  in
  let hb = load "package b; class B { b.C toC(); } class C { }" in
  ignore hb;
  let a_decl = Hierarchy.find h (Qname.of_string "a.A") in
  let to_b = List.hd a_decl.Javamodel.Decl.methods in
  let b_owner = Qname.of_string "b.B" in
  let m_c =
    Javamodel.Member.meth "toC" ~params:[] ~ret:(Jtype.ref_of_string "b.C")
  in
  let j =
    Jungloid.make ~input:(Jtype.ref_of_string "a.A")
      [
        Elem.Instance_call { owner = a_decl.Javamodel.Decl.dname; meth = to_b; input = Elem.Receiver };
        Elem.Instance_call { owner = b_owner; meth = m_c; input = Elem.Receiver };
      ]
  in
  check_int "one crossing" 1 (Rank.package_crossings j)

let test_rank_generality_tiebreak () =
  (* Two candidates of equal length; the one returning the more general
     type should rank first (the XMLEditor example of Section 3.2). *)
  let h =
    load
      {|
      package p;
      interface IEditorPart { }
      class XMLEditor implements IEditorPart { }
      class W {
        IEditorPart generic();
        XMLEditor specific();
      }
      |}
  in
  let w = Hierarchy.find h (Qname.of_string "p.W") in
  let m name =
    List.find (fun (m : Javamodel.Member.meth) -> m.mname = name) w.Javamodel.Decl.methods
  in
  let input = Jtype.ref_of_string "p.W" in
  let generic =
    Jungloid.make ~input
      [ Elem.Instance_call { owner = w.Javamodel.Decl.dname; meth = m "generic"; input = Elem.Receiver } ]
  in
  let specific =
    Jungloid.make ~input
      [
        Elem.Instance_call { owner = w.Javamodel.Decl.dname; meth = m "specific"; input = Elem.Receiver };
        Elem.Widen
          { from_ = Jtype.ref_of_string "p.XMLEditor"; to_ = Jtype.ref_of_string "p.IEditorPart" };
      ]
  in
  let sorted = Rank.sort h [ specific; generic ] in
  check_bool "generic ranked first" true (Jungloid.equal (List.hd sorted) generic);
  (* with the tiebreak disabled the order is textual, not generality *)
  let weights = { Rank.default_weights with generality_tiebreak = false } in
  let k_g = Rank.key ~weights h generic and k_s = Rank.key ~weights h specific in
  check_int "specificity off" k_g.Rank.specificity k_s.Rank.specificity

let test_pre_widening_output () =
  let a = Jtype.ref_of_string "p.A" and b = Jtype.ref_of_string "p.B" in
  let m = Javamodel.Member.meth "get" ~params:[] ~ret:a in
  let j =
    Jungloid.make ~input:b
      [
        Elem.Instance_call { owner = Qname.of_string "p.B"; meth = m; input = Elem.Receiver };
        Elem.Widen { from_ = a; to_ = Jtype.object_t };
      ]
  in
  check_string "pre-widen type" "p.A" (Jtype.to_string (Rank.pre_widening_output j))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core_search"
    [
      ( "search",
        [
          tc "shortest cost chain" test_shortest_cost_chain;
          tc "enumerate chain" test_enumerate_chain;
          tc "widening zero cost" test_widening_costs_zero;
          tc "slack" test_slack_enumerates_longer_paths;
          tc "acyclic only" test_acyclic_only;
          tc "multi source" test_multi_source;
          tc "limit" test_limit_respected;
          tc "distances" test_distances_agree_with_paths;
        ] );
      ( "jungloid",
        [
          tc "faq270 value" test_jungloid_faq270;
          tc "ill-typed detected" test_jungloid_ill_typed_detected;
          tc "widen not counted" test_jungloid_widen_not_counted;
          tc "downcast direction" test_jungloid_downcast_direction;
        ] );
      ( "rank",
        [
          tc "prefers shorter" test_rank_prefers_shorter;
          tc "freevar cost" test_rank_freevar_cost;
          tc "package crossings" test_rank_package_crossings;
          tc "generality tiebreak" test_rank_generality_tiebreak;
          tc "pre-widening output" test_pre_widening_output;
        ] );
    ]
