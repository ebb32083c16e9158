(* The query cache: cached and uncached pipelines must be indistinguishable
   — same jungloids, same rank keys, same order — over the whole curated
   workload; plus the Qcache LRU mechanics and the rule that an engine
   answers from the snapshot it froze, whatever happens to its graph. The
   engine's cache is reached through [run_batch]; [run_batch e [q]] is one
   query through it. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query
module Qcache = Prospector.Qcache
module Problems = Apidata.Problems

let workload () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let qs =
    List.map
      (fun (p : Problems.t) -> Query.query p.Problems.tin p.Problems.tout)
      Problems.all
  in
  (graph, hierarchy, qs)

(* ---------- cached = uncached over the full Table 1 workload ---------- *)

let check_results_equal name (a : Query.result list) (b : Query.result list) =
  Alcotest.(check int) (name ^ ": result count") (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      let n = Printf.sprintf "%s: result %d" name i in
      Alcotest.(check bool)
        (n ^ " jungloid")
        true
        (Prospector.Jungloid.equal x.Query.jungloid y.Query.jungloid);
      Alcotest.(check bool)
        (n ^ " rank key")
        true
        (Prospector.Rank.compare_key x.Query.key y.Query.key = 0);
      Alcotest.(check string) (n ^ " code") x.Query.code y.Query.code)
    (List.combine a b)

let cached engine q =
  match Query.run_batch engine [ q ] with
  | [ (_, rs) ] -> rs
  | _ -> Alcotest.fail "run_batch: one answer per query"

let test_cached_equals_uncached () =
  let graph, hierarchy, qs = workload () in
  let engine = Query.engine ~graph ~hierarchy () in
  let frozen = Query.freeze graph in
  List.iter
    (fun (q : Query.t) ->
      let plain = Query.run ~frozen ~hierarchy q in
      let cold = cached engine q in
      let warm = cached engine q in
      let name =
        Printf.sprintf "%s -> %s" (Jtype.to_string q.Query.tin)
          (Jtype.to_string q.Query.tout)
      in
      check_results_equal (name ^ " cold") plain cold;
      check_results_equal (name ^ " warm") plain warm)
    qs;
  let st = Query.engine_stats engine in
  Alcotest.(check int) "one miss per distinct query" (List.length qs)
    st.Qcache.s_misses;
  Alcotest.(check int) "one hit per repeat" (List.length qs) st.Qcache.s_hits

let test_batch_equals_uncached () =
  let graph, hierarchy, qs = workload () in
  let engine = Query.engine ~graph ~hierarchy () in
  (* include duplicates: the batch must answer them all, in input order *)
  let batch_in = qs @ qs in
  let out = Query.run_batch engine batch_in in
  Alcotest.(check int) "batch answers every query" (List.length batch_in)
    (List.length out);
  let frozen = Query.freeze graph in
  List.iter2
    (fun q (q', rs) ->
      Alcotest.(check bool) "batch preserves input order" true (q = q');
      check_results_equal "batch" (Query.run ~frozen ~hierarchy q) rs)
    batch_in out

(* ---------- the engine keeps its snapshot ---------- *)

let tiny_world () =
  let h =
    Japi.Loader.load_string ~file:"tiny"
      {|
      package t;
      class A { }
      class B { }
      |}
  in
  (h, Prospector.Sig_graph.build h)

(* [Query.engine] freezes its graph once; the graph is only a builder
   afterwards. Splicing an edge into it, as Mining.Enrich would, must not
   reach the engine: its snapshot, its cached answers and its fresh
   answers all stay those of the graph it was built from. *)
let test_builder_mutation_ignored () =
  let h, g = tiny_world () in
  let engine = Query.engine ~graph:g ~hierarchy:h () in
  let gen = Graph.frozen_generation (Query.engine_frozen engine) in
  let q = Query.query "t.A" "t.B" in
  Alcotest.(check (list reject)) "no path" [] (cached engine q);
  let a = Option.get (Graph.find_type_node g (Jtype.ref_of_string "t.A")) in
  let b = Option.get (Graph.find_type_node g (Jtype.ref_of_string "t.B")) in
  Graph.add_edge g ~src:a
    (Prospector.Elem.Downcast
       { from_ = Graph.node_type g a; to_ = Graph.node_type g b })
    ~dst:b;
  Alcotest.(check bool) "the builder now has a path" true
    (Query.run ~frozen:(Query.freeze g) ~hierarchy:h q <> []);
  Alcotest.(check (list reject)) "cached answer unchanged" [] (cached engine q);
  Alcotest.(check (list reject)) "fresh answer on the engine's snapshot unchanged" []
    (Query.run ~frozen:(Query.engine_frozen engine)
       ~hierarchy:(Query.engine_hierarchy engine) q);
  Alcotest.(check int) "same snapshot" gen
    (Graph.frozen_generation (Query.engine_frozen engine));
  let st = Query.engine_stats engine in
  Alcotest.(check int) "the repeat was a hit" 1 st.Qcache.s_hits;
  Alcotest.(check int) "nothing invalidated" 0 st.Qcache.s_invalidations

(* ---------- Qcache LRU mechanics ---------- *)

let test_lru_eviction () =
  let c = Qcache.create ~capacity:3 () in
  Qcache.add c "a" 1;
  Qcache.add c "b" 2;
  Qcache.add c "c" 3;
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ]
    (Qcache.keys_mru_first c);
  Qcache.add c "d" 4;
  Alcotest.(check bool) "lru evicted" false (Qcache.mem c "a");
  Alcotest.(check int) "still at capacity" 3 (Qcache.length c);
  Alcotest.(check (list string)) "order after eviction" [ "d"; "c"; "b" ]
    (Qcache.keys_mru_first c);
  Alcotest.(check int) "eviction counted" 1 (Qcache.stats c).Qcache.s_evictions

let test_lru_recency_refresh () =
  let c = Qcache.create ~capacity:3 () in
  Qcache.add c "a" 1;
  Qcache.add c "b" 2;
  Qcache.add c "c" 3;
  Alcotest.(check (option int)) "find a" (Some 1) (Qcache.find c "a");
  Qcache.add c "d" 4;
  (* "a" was refreshed to MRU, so "b" is the victim *)
  Alcotest.(check bool) "refreshed entry survives" true (Qcache.mem c "a");
  Alcotest.(check bool) "true LRU evicted" false (Qcache.mem c "b")

let test_counters_and_clear () =
  let c = Qcache.create ~capacity:2 () in
  Alcotest.(check (option int)) "miss on empty" None (Qcache.find c "x");
  Qcache.add c "x" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Qcache.find c "x");
  Qcache.clear c;
  Alcotest.(check int) "cleared" 0 (Qcache.length c);
  let st = Qcache.stats c in
  Alcotest.(check int) "hits survive clear" 1 st.Qcache.s_hits;
  Alcotest.(check int) "misses survive clear" 1 st.Qcache.s_misses;
  Alcotest.(check int) "clear counted as invalidation" 1 st.Qcache.s_invalidations;
  Alcotest.(check bool) "hit_rate sane" true
    (abs_float (Qcache.hit_rate st -. 0.5) < 1e-9)

let test_find_or_add_computes_once () =
  let c = Qcache.create ~capacity:4 () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "computed" 42 (Qcache.find_or_add c "k" compute);
  Alcotest.(check int) "cached" 42 (Qcache.find_or_add c "k" compute);
  Alcotest.(check int) "compute ran once" 1 !calls

let test_capacity_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Qcache.create: capacity must be >= 1") (fun () ->
      ignore (Qcache.create ~capacity:0 ()))

let test_overwrite_refreshes () =
  let c = Qcache.create ~capacity:2 () in
  Qcache.add c "a" 1;
  Qcache.add c "b" 2;
  Qcache.add c "a" 10;
  Alcotest.(check (option int)) "overwritten value" (Some 10) (Qcache.find c "a");
  Alcotest.(check int) "no duplicate entry" 2 (Qcache.length c);
  Qcache.add c "c" 3;
  Alcotest.(check bool) "b was the LRU" false (Qcache.mem c "b");
  Alcotest.(check bool) "a survived" true (Qcache.mem c "a")

let test_merge_stats () =
  let a = Qcache.create ~capacity:2 () and b = Qcache.create ~capacity:3 () in
  ignore (Qcache.find a "x");
  Qcache.add a "x" 1;
  ignore (Qcache.find a "x");
  ignore (Qcache.find b "y");
  let m = Qcache.merge_stats (Qcache.stats a) (Qcache.stats b) in
  Alcotest.(check int) "hits summed" 1 m.Qcache.s_hits;
  Alcotest.(check int) "misses summed" 2 m.Qcache.s_misses;
  Alcotest.(check int) "capacity summed" 5 m.Qcache.s_capacity

let () =
  Alcotest.run "cache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "cached = uncached, full workload" `Quick
            test_cached_equals_uncached;
          Alcotest.test_case "batch = uncached, with duplicates" `Quick
            test_batch_equals_uncached;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "engine ignores builder edits" `Quick
            test_builder_mutation_ignored;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "recency refresh" `Quick test_lru_recency_refresh;
          Alcotest.test_case "counters and clear" `Quick test_counters_and_clear;
          Alcotest.test_case "find_or_add computes once" `Quick
            test_find_or_add_computes_once;
          Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
          Alcotest.test_case "overwrite refreshes" `Quick test_overwrite_refreshes;
          Alcotest.test_case "merge_stats" `Quick test_merge_stats;
        ] );
    ]
