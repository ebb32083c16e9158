(* Property-based tests (qcheck) for the engine's invariants, over randomly
   generated synthetic APIs, corpora, and queries. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Search = Prospector.Search
module Jungloid = Prospector.Jungloid
module Rank = Prospector.Rank
module Query = Prospector.Query
module Elem = Prospector.Elem

(* A random synthetic world: hierarchy, graph, and a solvable query. *)
type world = {
  w_h : Hierarchy.t;
  w_g : Graph.t;
  w_queries : Query.t list;
}

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 20 80 in
    return
      (let params =
         { Corpusgen.Apigen.default_params with classes; seed; methods_per_class = 4 }
       in
       let h = Corpusgen.Apigen.generate params in
       let g = Prospector.Sig_graph.build h in
       let qs = Corpusgen.Workload.random_queries h g ~count:3 ~seed in
       { w_h = h; w_g = g; w_queries = qs }))

let for_all_results w f =
  let frozen = Query.freeze w.w_g in
  List.for_all
    (fun q -> List.for_all (fun r -> f q r) (Query.run ~frozen ~hierarchy:w.w_h q))
    w.w_queries

let prop_results_well_typed =
  QCheck2.Test.make ~name:"every result jungloid is well-typed" ~count:40 world_gen
    (fun w ->
      for_all_results w (fun _ r -> Jungloid.well_typed w.w_h r.Query.jungloid))

let prop_results_match_query =
  QCheck2.Test.make ~name:"result input/output types match the query" ~count:40
    world_gen (fun w ->
      for_all_results w (fun q r ->
          Jtype.equal (Jungloid.input_type r.Query.jungloid) q.Query.tin
          && Jtype.equal (Jungloid.output_type r.Query.jungloid) q.Query.tout))

let prop_path_costs_bounded =
  QCheck2.Test.make ~name:"enumerated path costs lie in [m, m+slack]" ~count:40
    world_gen (fun w ->
      List.for_all
        (fun (q : Query.t) ->
          match
            ( Graph.find_type_node w.w_g q.Query.tin,
              Graph.find_type_node w.w_g q.Query.tout )
          with
          | Some src, Some dst -> (
              let fz = Graph.freeze w.w_g in
              match Search.Csr.shortest_cost fz ~sources:[ src ] ~target:dst with
              | None -> Naive.shortest_cost w.w_g ~sources:[ src ] ~target:dst = None
              | Some m ->
                  let limit = 200_000 in
                  let paths =
                    Search.Csr.enumerate_per_source fz ~sources:[ src ] ~target:dst
                      ~slack:1 ~limit ()
                  in
                  Naive.shortest_cost w.w_g ~sources:[ src ] ~target:dst = Some m
                  && paths
                     = Naive.enumerate_per_source w.w_g ~sources:[ src ] ~target:dst
                         ~slack:1 ~limit ()
                  &&
                  let truncated = List.length paths >= limit in
                  (* Zero-cost (pure widening) paths carry no code and are
                     excluded by design, so for m = 0 the set may be empty
                     and the cheapest representable cost is 1. *)
                  let floor = max m 1 in
                  List.for_all
                    (fun p ->
                      let c = Search.path_cost p in
                      c >= floor && c <= m + 1)
                    paths
                  && (m = 0 || truncated
                     || (paths <> []
                        && List.exists (fun p -> Search.path_cost p = m) paths)))
          | _ -> true)
        w.w_queries)

let prop_slack_monotone =
  QCheck2.Test.make ~name:"slack k paths are a subset of slack k+1 paths" ~count:30
    world_gen (fun w ->
      List.for_all
        (fun (q : Query.t) ->
          match
            ( Graph.find_type_node w.w_g q.Query.tin,
              Graph.find_type_node w.w_g q.Query.tout )
          with
          | Some src, Some dst ->
              let fz = Graph.freeze w.w_g in
              let paths k =
                Search.Csr.enumerate_per_source fz ~sources:[ src ] ~target:dst
                  ~slack:k ~limit:100000 ()
                |> List.map (fun (p : Search.path) ->
                       List.map (fun e -> e.Graph.elem) p.Search.edges)
              in
              let p0 = paths 0 and p1 = paths 1 in
              List.for_all (fun p -> List.mem p p1) p0
          | _ -> true)
        w.w_queries)

let prop_rank_sorted =
  QCheck2.Test.make ~name:"results come back in non-decreasing rank order" ~count:40
    world_gen (fun w ->
      let frozen = Query.freeze w.w_g in
      List.for_all
        (fun q ->
          let rs = Query.run ~frozen ~hierarchy:w.w_h q in
          let rec ok = function
            | a :: (b :: _ as rest) ->
                Rank.compare_key a.Query.key b.Query.key <= 0 && ok rest
            | _ -> true
          in
          ok rs)
        w.w_queries)

let prop_rank_sort_stable_under_shuffle =
  QCheck2.Test.make ~name:"Rank.sort is permutation-invariant" ~count:30
    QCheck2.Gen.(pair world_gen (int_range 0 1000))
    (fun (w, shuffle_seed) ->
      let frozen = Query.freeze w.w_g in
      List.for_all
        (fun q ->
          let js =
            List.map (fun r -> r.Query.jungloid) (Query.run ~frozen ~hierarchy:w.w_h q)
          in
          let rng = Corpusgen.Rng.create ~seed:shuffle_seed in
          let shuffled = Corpusgen.Rng.shuffle rng js in
          Rank.sort w.w_h js = Rank.sort w.w_h shuffled)
        w.w_queries)

let prop_codegen_declares_ref_frees =
  QCheck2.Test.make ~name:"codegen declares exactly the reference free variables"
    ~count:40 world_gen (fun w ->
      for_all_results w (fun _ r ->
          let gen = Prospector.Codegen.generate r.Query.jungloid in
          let ref_frees =
            List.filter
              (fun (_, ty) -> Jtype.is_reference ty)
              (Jungloid.free_vars r.Query.jungloid)
          in
          List.length gen.Prospector.Codegen.free_var_names = List.length ref_frees))

let prop_codegen_result_var_present =
  QCheck2.Test.make ~name:"codegen's result variable appears in the code" ~count:40
    world_gen (fun w ->
      for_all_results w (fun _ r ->
          let gen = Prospector.Codegen.generate r.Query.jungloid in
          let contains ~sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            n = 0 || go 0
          in
          contains ~sub:gen.Prospector.Codegen.result_var gen.Prospector.Codegen.code))

let prop_cluster_partitions =
  QCheck2.Test.make ~name:"clusters partition the result list" ~count:40 world_gen
    (fun w ->
      let frozen = Query.freeze w.w_g in
      List.for_all
        (fun q ->
          let rs = Query.run ~frozen ~hierarchy:w.w_h q in
          let cs = Query.cluster rs in
          List.fold_left (fun acc c -> acc + c.Query.members) 0 cs = List.length rs)
        w.w_queries)

let prop_japi_printer_roundtrip =
  QCheck2.Test.make ~name:"japi printer/loader round-trips random hierarchies"
    ~count:25
    QCheck2.Gen.(
      let* seed = int_range 1 5000 in
      let* classes = int_range 5 40 in
      return (Corpusgen.Apigen.generate
                { Corpusgen.Apigen.default_params with classes; seed }))
    (fun h ->
      let h' = Japi.Loader.load_files (Japi.Printer.print_files h) in
      let decls hh =
        List.filter (fun (d : Javamodel.Decl.t) -> not d.Javamodel.Decl.synthetic)
          (Hierarchy.decls hh)
      in
      let a = decls h and b = decls h' in
      List.length a = List.length b
      && List.for_all2 (fun x y -> Javamodel.Decl.equal x y) a b)

(* ---------- mining properties over ground-truth workloads ---------- *)

let truth_gen =
  QCheck2.Gen.(
    let* producers = int_range 2 12 in
    let* routes = int_range 1 4 in
    let* seed = int_range 1 1000 in
    return
      (Corpusgen.Truthgen.generate
         { Corpusgen.Truthgen.producers; coverage = 1.0; routes; reuse_variable = false; seed }))

let extract_of t =
  let prog =
    Minijava.Resolve.parse_program ~api:t.Corpusgen.Truthgen.hierarchy
      t.Corpusgen.Truthgen.corpus
  in
  (prog, Mining.Extract.extract (Mining.Dataflow.build prog))

let prop_extracted_well_typed =
  QCheck2.Test.make ~name:"extracted examples are well-typed jungloids" ~count:30
    truth_gen (fun t ->
      let prog, examples = extract_of t in
      examples <> []
      && List.for_all
           (Mining.Extract.example_well_typed prog.Minijava.Tast.hierarchy)
           examples)

let prop_generalized_well_typed_and_shorter =
  QCheck2.Test.make
    ~name:"generalized suffixes are well-typed, end in the same cast, and are no longer"
    ~count:30 truth_gen (fun t ->
      let prog, examples = extract_of t in
      let gen = Mining.Generalize.run examples in
      let final ex = List.nth ex.Mining.Extract.elems (List.length ex.Mining.Extract.elems - 1) in
      let finals_in xs =
        List.sort_uniq compare (List.map (fun ex -> final ex) xs)
      in
      List.for_all
        (Mining.Extract.example_well_typed prog.Minijava.Tast.hierarchy)
        gen
      && List.for_all
           (fun g ->
             List.length g.Mining.Extract.elems
             <= List.fold_left
                  (fun m ex -> max m (List.length ex.Mining.Extract.elems))
                  0 examples)
           gen
      && finals_in gen = finals_in examples)

let prop_cap_respected =
  QCheck2.Test.make ~name:"per-cast cap bounds extraction" ~count:20
    QCheck2.Gen.(pair (int_range 1 10) (int_range 2 30))
    (fun (cap, branches) ->
      let h, corpus = Corpusgen.Workload.branchy_corpus ~branches in
      let prog = Minijava.Resolve.parse_program ~api:h corpus in
      let df = Mining.Dataflow.build prog in
      let examples = Mining.Extract.extract ~max_per_cast:cap df in
      List.length examples <= cap)

let prop_enrich_only_adds =
  QCheck2.Test.make ~name:"enrichment adds nodes/edges, never removes" ~count:20
    truth_gen (fun t ->
      let prog =
        Minijava.Resolve.parse_program ~api:t.Corpusgen.Truthgen.hierarchy
          t.Corpusgen.Truthgen.corpus
      in
      let g = Prospector.Sig_graph.build t.Corpusgen.Truthgen.hierarchy in
      let n0 = Graph.node_count g and e0 = Graph.edge_count g in
      let _ = Mining.Enrich.enrich g prog in
      Graph.node_count g >= n0 && Graph.edge_count g > e0)

(* A snapshot against the builder graph it was frozen from: node types,
   typestate origins, each row's successor order, and the edge multiset.
   Half the worlds are signature graphs; the other half are Truthgen APIs
   enriched with their corpus, whose typestate nodes and downcast edges
   only mining creates. *)
let freeze_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun w -> w.w_g) world_gen;
        map
          (fun t ->
            let h = t.Corpusgen.Truthgen.hierarchy in
            let g = Prospector.Sig_graph.build h in
            ignore
              (Mining.Enrich.enrich g
                 (Minijava.Resolve.parse_program ~api:h t.Corpusgen.Truthgen.corpus)
                : Mining.Enrich.stats);
            g)
          truth_gen;
      ])

let prop_freeze_preserves_graph =
  QCheck2.Test.make ~name:"freeze preserves the graph structurally" ~count:30
    freeze_gen (fun g ->
      let fz = Graph.freeze g in
      let edges iter =
        let acc = ref [] in
        iter (fun e -> acc := (e.Graph.src, e.Graph.elem, e.Graph.dst) :: !acc);
        List.sort compare !acc
      in
      Graph.node_count g = Graph.frozen_node_count fz
      && List.for_all
           (fun n ->
             Jtype.equal (Graph.node_type g n) (Graph.frozen_node_type fz n)
             && Graph.typestate_origin g n = fz.Graph.f_origins.(n)
             && Graph.frozen_succs fz n = Graph.succs g n)
           (Graph.nodes g)
      && edges (Graph.iter_edges g) = edges (Graph.frozen_iter_edges fz))

(* ---------- robustness over random corpora ---------- *)

let progen_world =
  QCheck2.Gen.(
    let* api_seed = int_range 1 500 in
    let* corpus_seed = int_range 1 500 in
    let* classes = int_range 15 50 in
    return
      (let h =
         Corpusgen.Apigen.generate
           { Corpusgen.Apigen.default_params with classes; seed = api_seed }
       in
       let corpus =
         Corpusgen.Progen.generate h
           { Corpusgen.Progen.default_params with seed = corpus_seed }
       in
       (h, corpus)))

let prop_progen_pipeline_robust =
  QCheck2.Test.make
    ~name:"random corpora resolve, mine, generalize, and enrich without error"
    ~count:25 progen_world (fun (h, corpus) ->
      let prog = Minijava.Resolve.parse_program ~api:h corpus in
      let df = Mining.Dataflow.build prog in
      let examples = Mining.Extract.extract df in
      let gen = Mining.Generalize.run examples in
      let g = Prospector.Sig_graph.build h in
      let _ = Mining.Enrich.enrich g prog in
      List.for_all
        (Mining.Extract.example_well_typed prog.Minijava.Tast.hierarchy)
        (examples @ gen))

let prop_progen_parses_and_prints =
  QCheck2.Test.make ~name:"random corpora round-trip through the pretty-printer"
    ~count:25 progen_world (fun (_, corpus) ->
      List.for_all
        (fun (name, src) ->
          let f1 = Minijava.Parser.parse ~file:name src in
          let printed = Minijava.Pretty.print_file f1 in
          let f2 = Minijava.Parser.parse ~file:name printed in
          String.equal printed (Minijava.Pretty.print_file f2))
        corpus)

(* ---------- front-end fuzzing: garbage in, located errors out ---------- *)

let garbage_gen =
  QCheck2.Gen.(
    let frag =
      oneofl
        [
          "class"; "interface"; "Foo"; "{"; "}"; "("; ")"; ";"; "."; ","; "=";
          "extends"; "implements"; "static"; "void"; "int"; "new"; "return";
          "if"; "while"; "?"; "\"str\""; "42"; "[]"; "@Deprecated"; "package";
          "x.y.Z"; "//c\n"; "/*c*/";
        ]
    in
    map (String.concat " ") (list_size (int_bound 40) frag))

let prop_japi_never_crashes =
  QCheck2.Test.make ~name:"japi loader: garbage raises Error.E or loads" ~count:300
    garbage_gen (fun src ->
      match Japi.Loader.load_string src with
      | _ -> true
      | exception Japi.Error.E _ -> true)

let prop_minijava_never_crashes =
  QCheck2.Test.make ~name:"minijava parser: garbage raises Error.E or parses"
    ~count:300 garbage_gen (fun src ->
      match Minijava.Parser.parse ~file:"fuzz" src with
      | _ -> true
      | exception Japi.Error.E _ -> true)

let prop_query_parse_never_crashes =
  QCheck2.Test.make ~name:"Query.query accepts arbitrary type strings" ~count:200
    QCheck2.Gen.(
      pair
        (oneofl [ "a.B"; "int"; "void"; "x"; "a.b.C[]"; "byte[][]"; "java.lang.String" ])
        (oneofl [ "a.B"; "void"; "q.R[]"; "boolean" ]))
    (fun (a, b) ->
      let q = Prospector.Query.query a b in
      ignore q.Prospector.Query.tin;
      true)

let () =
  Alcotest.run "properties"
    [
      ( "search+rank",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_results_well_typed;
            prop_results_match_query;
            prop_path_costs_bounded;
            prop_slack_monotone;
            prop_rank_sorted;
            prop_rank_sort_stable_under_shuffle;
          ] );
      ( "codegen+serialize",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_codegen_declares_ref_frees;
            prop_codegen_result_var_present;
            prop_freeze_preserves_graph;
            prop_cluster_partitions;
            prop_japi_printer_roundtrip;
          ] );
      ( "mining",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_extracted_well_typed;
            prop_generalized_well_typed_and_shorter;
            prop_cap_respected;
            prop_enrich_only_adds;
          ] );
      ( "robustness",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_progen_pipeline_robust;
            prop_progen_parses_and_prints;
            prop_japi_never_crashes;
            prop_minijava_never_crashes;
            prop_query_parse_never_crashes;
          ] );
    ]
