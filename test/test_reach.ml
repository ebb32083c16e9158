(* The reachability index and the pruned search: Reach.mem must agree with
   the BFS on every pair, and pruning must be invisible in the results —
   the same paths, in the same order, on randomized graphs and on graphs
   enriched with mined edges. *)

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

(* ---------- pruning is invisible in search results ---------- *)

(* The cone-pruned kernels against the unpruned naive oracle. *)
let search_pair_equal w ~src ~dst r =
  let sources = [ src; Graph.void_node w.w_g ] in
  let fz = Graph.freeze w.w_g in
  let cone = Option.map fst (Reach.cone r ~target:dst) in
  Search.Csr.enumerate_per_source fz ~sources:[ src ] ~target:dst ~slack:1
    ~limit:100_000 ?cone ()
  = Naive.enumerate_per_source w.w_g ~sources:[ src ] ~target:dst ~slack:1
      ~limit:100_000 ()
  && Search.Csr.shortest_cost fz ?cone ~sources:[ src ] ~target:dst
     = Naive.shortest_cost w.w_g ~sources:[ src ] ~target:dst
  && Search.Csr.enumerate_per_source fz ~sources ~target:dst ~slack:1
       ~limit:100_000 ?cone ()
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
      let r = Reach.build w.w_g in
      List.for_all
        (fun q ->
          Query.run ~graph:w.w_g ~hierarchy:w.w_h q
          = Query.run ~reach:r ~graph:w.w_g ~hierarchy:w.w_h q)
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
      Reach.generation r = Graph.generation g
      && List.for_all
           (fun q ->
             Query.run ~graph:g ~hierarchy:h q
             = Query.run ~reach:r ~graph:g ~hierarchy:h q)
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

let test_dump_roundtrip () =
  let w = make_world ~classes:30 ~seed:7 () in
  let r = Reach.build w.w_g in
  let r' = Reach.undump (Reach.dump r) in
  Alcotest.(check int) "generation survives" (Reach.generation r)
    (Reach.generation r');
  Alcotest.(check int) "scc count survives" (Reach.scc_count r)
    (Reach.scc_count r');
  let nodes = Graph.nodes w.w_g in
  List.iter
    (fun target ->
      List.iter
        (fun src ->
          Alcotest.(check bool)
            (Printf.sprintf "mem %d->%d survives" src target)
            (Reach.mem r ~src ~target)
            (Reach.mem r' ~src ~target))
        nodes)
    (List.filteri (fun i _ -> i mod 13 = 0) nodes)

let test_serialize_reach_roundtrip () =
  let w = make_world ~classes:25 ~seed:11 () in
  let r = Reach.build w.w_g in
  let r' = Prospector.Serialize.reach_of_bytes (Prospector.Serialize.reach_to_bytes r) in
  Alcotest.(check int) "node count survives" (Reach.node_count r)
    (Reach.node_count r');
  Alcotest.check
    (Alcotest.testable
       (fun fmt e -> Format.pp_print_string fmt (Printexc.to_string e))
       (fun _ _ -> true))
    "corrupt bytes rejected"
    (Prospector.Serialize.Format_error "")
    (try
       ignore (Prospector.Serialize.reach_of_bytes (Bytes.of_string "garbage"));
       failwith "expected Format_error"
     with Prospector.Serialize.Format_error _ as e -> e)

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
          ] );
      ( "units",
        [
          Alcotest.test_case "chain reachability" `Quick test_chain_reachability;
          Alcotest.test_case "generation tracking" `Quick test_generation_tracks_graph;
          Alcotest.test_case "out-of-range conservative" `Quick
            test_out_of_range_conservative;
          Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip;
          Alcotest.test_case "serialized index roundtrip" `Quick
            test_serialize_reach_roundtrip;
        ] );
    ]
