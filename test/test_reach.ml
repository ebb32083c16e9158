(* The reachability index as a rejection oracle: Reach.mem must agree with
   the BFS on every pair, and a query run with the index must return what
   it returns without — the same paths, in the same order, on randomized
   graphs and on graphs enriched with mined edges. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Search = Prospector.Search
module Reach = Prospector.Reach
module Query = Prospector.Query
module Elem = Prospector.Elem

type world = { w_h : Hierarchy.t; w_g : Graph.t; w_queries : Query.t list }

let make_world ?(locality = 0.0) ~classes ~seed () =
  let params =
    {
      Corpusgen.Apigen.default_params with
      classes;
      seed;
      methods_per_class = 4;
      locality;
    }
  in
  let h = Corpusgen.Apigen.generate params in
  let g = Prospector.Sig_graph.build h in
  let qs = Corpusgen.Workload.random_queries h g ~count:3 ~seed in
  { w_h = h; w_g = g; w_queries = qs }

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 15 60 in
    let* locality = oneofl [ 0.0; 0.9 ] in
    return (make_world ~locality ~classes ~seed ()))

(* ---------- the flat Tarjan matches the reference ---------- *)

(* A random digraph as a frozen snapshot: [n] type nodes interned in order
   and widening edges between them, self-loops and parallel draws
   included; dense draws make large cycles, sparse ones long chains. *)
let digraph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 80 in
    let* density = oneofl [ 0.5; 1.0; 2.0; 4.0 ] in
    let* edges =
      list_size
        (int_range 0 (int_of_float (density *. float_of_int n)))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, edges))

let frozen_of_digraph (n, edges) =
  let g = Graph.create () in
  let ty i = Jtype.ref_of_string (Printf.sprintf "r.N%d" i) in
  let node = Array.init n (fun i -> Graph.ensure_type_node g (ty i)) in
  List.iter
    (fun (a, b) -> Graph.add_edge g ~src:node.(a) (Elem.Widen { from_ = ty a; to_ = ty b }) ~dst:node.(b))
    edges;
  Graph.freeze g

let prop_sccs_match_reference =
  QCheck2.Test.make ~name:"flat-stack Tarjan numbers components like the reference"
    ~count:500
    ~print:(fun (n, edges) ->
      Printf.sprintf "%d nodes: %s" n
        (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))
    digraph_gen
    (fun d ->
      let fz = frozen_of_digraph d in
      let comp, ncomp = Ref_tarjan.sccs fz in
      let r = Reach.build_frozen fz in
      Reach.components r = comp && Reach.scc_count r = ncomp)

(* ---------- Reach.mem agrees with the BFS ---------- *)

let prop_mem_agrees_with_bfs =
  QCheck2.Test.make ~name:"Reach.mem = (distance to target < infinity)" ~count:25
    world_gen (fun w ->
      let r = Reach.build w.w_g in
      let nodes = Graph.nodes w.w_g in
      List.for_all
        (fun target ->
          let dist = Naive.distances_to w.w_g ~target in
          List.for_all
            (fun src ->
              Reach.mem r ~src ~target = (dist.(src) < max_int))
            nodes)
        (* every target would be O(n^2) BFS runs; a deterministic slice of
           targets keeps the test fast while still covering hubs and
           leaves *)
        (List.filteri (fun i _ -> i mod 7 = 0) nodes))

let prop_cone_size_counts_bfs =
  QCheck2.Test.make ~name:"cone_size counts exactly the backward-reachable set"
    ~count:25 world_gen (fun w ->
      let r = Reach.build w.w_g in
      List.for_all
        (fun target ->
          let dist = Naive.distances_to w.w_g ~target in
          let by_bfs =
            List.length
              (List.filter (fun n -> dist.(n) < max_int) (Graph.nodes w.w_g))
          in
          Reach.cone_size r ~target = by_bfs)
        (List.filteri (fun i _ -> i mod 11 = 0) (Graph.nodes w.w_g)))

(* ---------- the index never changes a search result ---------- *)

(* The distance-pruned kernels against the naive oracle, with the index's
   verdict alongside: it rejects a pair exactly when the search finds no
   path, so rejecting never drops an answer. *)
let search_pair_equal w ~src ~dst r =
  let sources = [ src; Graph.void_node w.w_g ] in
  let fz = Graph.freeze w.w_g in
  let cost = Search.Csr.shortest_cost fz ~sources:[ src ] ~target:dst in
  Search.Csr.enumerate_per_source fz ~sources:[ src ] ~target:dst ~slack:1
    ~limit:100_000 ()
  = Naive.enumerate_per_source w.w_g ~sources:[ src ] ~target:dst ~slack:1
      ~limit:100_000 ()
  && cost = Naive.shortest_cost w.w_g ~sources:[ src ] ~target:dst
  && Reach.mem r ~src ~target:dst = (cost <> None)
  && Search.Csr.enumerate_per_source fz ~sources ~target:dst ~slack:1
       ~limit:100_000 ()
     = Naive.enumerate_per_source w.w_g ~sources ~target:dst ~slack:1
         ~limit:100_000 ()

let prop_pruned_search_identical =
  QCheck2.Test.make
    ~name:"pruned enumerate/shortest_cost return identical ordered results"
    ~count:30 world_gen (fun w ->
      let r = Reach.build w.w_g in
      List.for_all
        (fun (q : Query.t) ->
          match
            ( Graph.find_type_node w.w_g q.Query.tin,
              Graph.find_type_node w.w_g q.Query.tout )
          with
          | Some src, Some dst -> search_pair_equal w ~src ~dst r
          | _ -> true)
        w.w_queries)

let prop_pruned_query_identical =
  QCheck2.Test.make ~name:"Query.run ~reach equals Query.run, rank and order"
    ~count:30 world_gen (fun w ->
      let r = Reach.build w.w_g and frozen = Query.freeze w.w_g in
      List.for_all
        (fun q ->
          Query.run ~frozen ~hierarchy:w.w_h q
          = Query.run ~reach:r ~frozen ~hierarchy:w.w_h q)
        w.w_queries)

(* The same equivalence on a graph enriched with mined downcast edges — the
   index is rebuilt after enrichment, exactly as the engine does. *)
let prop_pruned_identical_after_enrich =
  QCheck2.Test.make ~name:"pruned = unpruned on an enriched graph" ~count:15
    QCheck2.Gen.(
      let* api_seed = int_range 1 500 in
      let* corpus_seed = int_range 1 500 in
      let* classes = int_range 15 40 in
      return
        (let h =
           Corpusgen.Apigen.generate
             { Corpusgen.Apigen.default_params with classes; seed = api_seed }
         in
         let corpus =
           Corpusgen.Progen.generate h
             { Corpusgen.Progen.default_params with seed = corpus_seed }
         in
         (h, corpus, corpus_seed)))
    (fun (h, corpus, seed) ->
      let g = Prospector.Sig_graph.build h in
      let prog = Minijava.Resolve.parse_program ~api:h corpus in
      let _ = Mining.Enrich.enrich g prog in
      let r = Reach.build g in
      let qs = Corpusgen.Workload.random_queries h g ~count:3 ~seed in
      let frozen = Query.freeze g in
      Reach.generation r = Graph.generation g
      && List.for_all
           (fun q ->
             Query.run ~frozen ~hierarchy:h q = Query.run ~reach:r ~frozen ~hierarchy:h q)
           qs)

(* ---------- units: a tiny hand-made world ---------- *)

let chain_world () =
  let h =
    Japi.Loader.load_string ~file:"chain"
      {|
      package t;
      class A { B toB(); }
      class B { C toC(); }
      class C { }
      class Island { }
      |}
  in
  let g = Prospector.Sig_graph.build h in
  let node name = Option.get (Graph.find_type_node g (Jtype.ref_of_string ("t." ^ name))) in
  (g, node)

let test_chain_reachability () =
  let g, node = chain_world () in
  let r = Reach.build g in
  let a = node "A" and b = node "B" and c = node "C" and isl = node "Island" in
  Alcotest.(check bool) "A reaches C" true (Reach.mem r ~src:a ~target:c);
  Alcotest.(check bool) "C does not reach A" false (Reach.mem r ~src:c ~target:a);
  Alcotest.(check bool) "Island reaches nothing" false (Reach.mem r ~src:isl ~target:c);
  Alcotest.(check bool) "B reaches C" true (Reach.mem r ~src:b ~target:c);
  Alcotest.(check bool) "self-reachable" true (Reach.mem r ~src:c ~target:c);
  Alcotest.(check bool) "cone of C contains A, B, C" true
    (Reach.cone_size r ~target:c >= 3)

let test_generation_tracks_graph () =
  let g, node = chain_world () in
  let r = Reach.build g in
  Alcotest.(check int) "index stamped with the build generation"
    (Graph.generation g) (Reach.generation r);
  let isl = node "Island" and c = node "C" in
  Graph.add_edge g ~src:isl
    (Elem.Widen
       { from_ = Graph.node_type g isl; to_ = Graph.node_type g c })
    ~dst:c;
  Alcotest.(check bool) "mutation moves the graph generation" true
    (Graph.generation g > Reach.generation r);
  (* the stale index still answers from its snapshot *)
  Alcotest.(check bool) "stale index keeps its snapshot" false
    (Reach.mem r ~src:isl ~target:c);
  let r2 = Reach.build g in
  Alcotest.(check bool) "rebuilt index sees the new edge" true
    (Reach.mem r2 ~src:isl ~target:c)

let test_out_of_range_conservative () =
  let g, node = chain_world () in
  let r = Reach.build g in
  let fresh = Graph.ensure_type_node g (Jtype.ref_of_string "t.Later") in
  let c = node "C" in
  Alcotest.(check bool) "node created after the build is reported reachable"
    true
    (Reach.mem r ~src:fresh ~target:c && Reach.mem r ~src:c ~target:fresh)

(* A cone is probed per node id; one taken from an index over fewer nodes
   must treat the nodes it never saw as viable, as [Reach.mem] does, and
   never read past its component map. The snapshot grows by a node that
   reaches the target, so the old cone's answer for every node it does
   cover is still right. *)
let test_short_cone_on_grown_snapshot () =
  let g, node = chain_world () in
  let r = Reach.build g in
  let c = node "C" in
  let cone, _ = Option.get (Reach.cone r ~target:c) in
  let later = Graph.ensure_type_node g (Jtype.ref_of_string "t.Later") in
  Graph.add_edge g ~src:later
    (Elem.Widen { from_ = Graph.node_type g later; to_ = Graph.node_type g c })
    ~dst:c;
  let fz = Graph.freeze g in
  let n = Graph.frozen_node_count fz in
  Alcotest.(check bool) "the snapshot outgrew the index" true (n > Reach.node_count r);
  let unpruned = Search.Dist.snapshot ~n (Search.Csr.distances_to fz ~target:c) in
  Alcotest.(check (array int)) "stale cone = unpruned distances" unpruned
    (Search.Dist.snapshot ~n (Search.Csr.distances_to ~cone fz ~target:c));
  Alcotest.(check int) "the new node is reached" 0 unpruned.(later)

let () =
  Alcotest.run "reach"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mem_agrees_with_bfs;
            prop_cone_size_counts_bfs;
            prop_pruned_search_identical;
            prop_pruned_query_identical;
            prop_pruned_identical_after_enrich;
            prop_sccs_match_reference;
          ] );
      ( "units",
        [
          Alcotest.test_case "chain reachability" `Quick test_chain_reachability;
          Alcotest.test_case "generation tracking" `Quick test_generation_tracks_graph;
          Alcotest.test_case "out-of-range conservative" `Quick
            test_out_of_range_conservative;
          Alcotest.test_case "short cone on a grown snapshot" `Quick
            test_short_cone_on_grown_snapshot;
        ] );
    ]
