(* The mined usage model ([Mining.Usage]): counting semantics on hand-built
   examples, then the properties the weighted search relies on, over random
   Apigen worlds — every cost is a finite non-negative integer bounded by
   the smoothing floor, unseen elems cost exactly the floor (one paper
   unit), frequency is rewarded monotonically, and the weighted Dijkstra
   distance the best-first priority adds is a true lower bound on the mined
   cost of every solution actually returned (the admissibility that makes
   BestFirst+Mined certify the same answers as the exhaustive oracle). *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Search = Prospector.Search
module Query = Prospector.Query
module Sig_graph = Prospector.Sig_graph
module Usage = Mining.Usage
module Extract = Mining.Extract
module Apigen = Corpusgen.Apigen
module Workload = Corpusgen.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- fixtures ---------- *)

let chain_model () =
  Japi.Loader.load_string
    {|
    package p;
    class A { B toB(); }
    class B { C toC(); }
    class C { D toD(); }
    class D { }
    |}

(* The non-widening elems of a graph, in a deterministic order. *)
let call_elems g =
  let acc = ref [] in
  Graph.iter_edges g (fun e ->
      if not (Elem.is_widen e.Graph.elem) then acc := e.Graph.elem :: !acc);
  List.sort_uniq Elem.compare !acc

let example ?(origin = "t:cast-0") input elems = { Extract.input; elems; origin }

(* ---------- counting semantics ---------- *)

let test_empty_model () =
  check_int "total" 0 (Usage.total Usage.empty);
  check_int "distinct" 0 (Usage.distinct Usage.empty);
  check_int "floor of the empty model" 0 (Usage.floor_cost Usage.empty);
  let g = Sig_graph.build (chain_model ()) in
  List.iter
    (fun e -> check_int "empty model costs nothing" 0 (Usage.edge_cost Usage.empty e))
    (call_elems g)

let test_counts_and_pairs () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  match call_elems g with
  | (a :: b :: c :: _ : Elem.t list) ->
      let widen =
        Elem.Widen
          {
            from_ = Jtype.ref_of_string "p.A";
            to_ = Jtype.ref_of_string "p.A";
          }
      in
      let input = Jtype.ref_of_string "p.A" in
      let m =
        Usage.of_examples
          [
            example input [ a; b; c ];
            example input [ a; widen; b ];
            (* widen is invisible to the counts *)
            example input [ a ];
          ]
      in
      check_int "a counted thrice" 3 (Usage.count m a);
      check_int "b counted twice" 2 (Usage.count m b);
      check_int "c counted once" 1 (Usage.count m c);
      check_int "widen never counted" 0 (Usage.count m widen);
      check_int "total sums the calls" 6 (Usage.total m);
      check_int "three distinct" 3 (Usage.distinct m);
      (* pairs skip widens: a·widen·b still co-occurs as (a, b) *)
      check_int "pair (a,b) twice" 2 (Usage.pair_count m a b);
      check_int "pair (b,c) once" 1 (Usage.pair_count m b c);
      check_int "pair (a,c) never adjacent" 0 (Usage.pair_count m a c);
      (* the cost order rewards frequency; unseen sits at the floor *)
      check_int "floor is one paper unit" Elem.cost_scale (Usage.floor_cost m);
      check_bool "more frequent is cheaper" true
        (Usage.edge_cost m a < Usage.edge_cost m b
        && Usage.edge_cost m b < Usage.edge_cost m c);
      check_bool "seen beats the floor" true
        (Usage.edge_cost m c < Usage.floor_cost m);
      check_int "widen always free" 0 (Usage.edge_cost m widen)
  | _ -> Alcotest.fail "chain model should have at least three call elems"

(* ---------- qcheck: random worlds ---------- *)

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 20 60 in
    return
      (let params =
         {
           Apigen.default_params with
           classes;
           seed;
           methods_per_class = 4;
         }
       in
       let h = Apigen.generate params in
       (h, Sig_graph.build h)))

(* A random sub-multiset of the world's elems, shaped into examples. *)
let model_gen =
  QCheck2.Gen.(
    let* h, g = world_gen in
    let elems = Array.of_list (call_elems g) in
    let* picks =
      list_size (int_range 0 60) (int_range 0 (max 0 (Array.length elems - 1)))
    in
    let examples =
      List.mapi
        (fun i k ->
          let e = elems.(k) in
          example ~origin:(Printf.sprintf "gen:cast-%d" i) (Elem.input_type e)
            [ e ])
        picks
    in
    return (h, g, Usage.of_examples examples, Array.to_list elems, picks = []))

let prop_costs_bounded =
  QCheck2.Test.make
    ~name:"0 <= cost <= floor = cost_scale for every elem (random worlds)"
    ~count:50 model_gen (fun (_, _, m, elems, empty) ->
      let floor = Usage.floor_cost m in
      (if empty then floor = 0 else floor = Elem.cost_scale)
      && List.for_all
           (fun e ->
             let c = Usage.edge_cost m e in
             0 <= c && c <= floor)
           elems)

let prop_unseen_at_floor =
  QCheck2.Test.make
    ~name:"unseen elems cost exactly the smoothing floor" ~count:50 model_gen
    (fun (_, _, m, elems, _) ->
      List.for_all
        (fun e ->
          Usage.count m e > 0 || Usage.edge_cost m e = Usage.floor_cost m)
        elems)

let prop_frequency_monotone =
  QCheck2.Test.make
    ~name:"higher count never costs more" ~count:50 model_gen
    (fun (_, _, m, elems, _) ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Usage.count m a < Usage.count m b
              || Usage.edge_cost m a <= Usage.edge_cost m b)
            elems)
        elems)

(* ---------- qcheck: the best-first priority is admissible ---------- *)

let prop_weighted_distance_is_lower_bound =
  (* wdist_to(src) enters every best-first priority as the estimate of the
     remaining mined cost; it must never exceed the mined cost of any
     solution the search certifies, or the heap could retire a batch while
     a cheaper completion is still pending. *)
  QCheck2.Test.make
    ~name:"weighted Dijkstra distance <= mined cost of every returned solution"
    ~count:25 model_gen (fun (h, g, m, _, _) ->
      let edge_cost = Usage.edge_cost m in
      let settings =
        { Query.default_settings with ranking = Query.Mined; max_results = 10 }
      in
      List.for_all
        (fun (q : Query.t) ->
          match Graph.find_type_node g q.Query.tin with
          | None -> true
          | Some src ->
              let target =
                Option.get (Graph.find_type_node g q.Query.tout)
              in
              let wdist =
                Search.Dist.snapshot ~n:(Graph.node_count g)
                  (Search.Csr.weighted_distances_to
                     (Graph.freeze ~wcost:edge_cost g)
                     ~target)
              in
              wdist = Naive.weighted_distances_to g ~target ~cost:edge_cost
              &&
              Query.run ~settings ~edge_cost ~frozen:(Query.freeze ~edge_cost g) ~hierarchy:h q
              |> List.for_all (fun (r : Query.result) ->
                     let mined =
                       List.fold_left
                         (fun acc e -> acc + edge_cost e)
                         0 r.Query.jungloid.Prospector.Jungloid.elems
                     in
                     wdist.(src) <= mined))
        (Workload.random_queries h g ~count:3 ~seed:5))

let () =
  Alcotest.run "usage"
    [
      ( "counting",
        [
          Alcotest.test_case "empty model" `Quick test_empty_model;
          Alcotest.test_case "counts, pairs, cost order" `Quick
            test_counts_and_pairs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_costs_bounded;
            prop_unseen_at_floor;
            prop_frequency_monotone;
            prop_weighted_distance_is_lower_bound;
          ] );
    ]
