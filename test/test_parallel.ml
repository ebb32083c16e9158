(* The domain-parallel engine must be invisible in the answers: this suite
   pins Pool's scheduling contract (ordering, nesting, exceptions, parked
   workers reused across calls and shared by concurrent callers), the
   Graph.freeze CSR round-trip (qcheck, over random synthetic APIs), and
   byte-identical results at jobs = 1 vs jobs = 4 for queries, batches, and
   corpus mining. The CSR search kernels themselves are covered
   transitively: [Query.run ~frozen] answers every query here over the
   frozen view and is compared against the naive pipeline in naive.ml. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query
module Stats = Prospector.Stats
module Pool = Prospector_parallel.Pool
module Proto = Prospector_server.Proto
module Service = Prospector_server.Service
module Problems = Apidata.Problems

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- the pool's scheduling contract ---------- *)

let test_pool_create_rejects () =
  Alcotest.check_raises "jobs = 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0))

let test_pool_map_order () =
  let input = List.init 317 (fun i -> i) in
  let expected = List.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      check_bool
        (Printf.sprintf "map_list order at jobs = %d" jobs)
        true
        (Pool.map_list pool (fun i -> i * i) input = expected);
      check_bool
        (Printf.sprintf "map_array order at jobs = %d" jobs)
        true
        (Pool.map_array pool (fun i -> i * i) (Array.of_list input)
        = Array.of_list expected))
    [ 1; 2; 4; 7 ]

let test_pool_for_covers_every_index () =
  let n = 1000 in
  let hits = Array.make n 0 in
  (* disjoint index-addressed writes, the documented contract *)
  Pool.parallel_for (Pool.create ~jobs:4) ~n (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "each index exactly once" true (Array.for_all (( = ) 1) hits)

let test_pool_empty_and_tiny () =
  let pool = Pool.create ~jobs:4 in
  check_bool "empty list" true (Pool.map_list pool succ [] = []);
  check_bool "singleton" true (Pool.map_list pool succ [ 41 ] = [ 42 ]);
  Pool.parallel_for pool ~n:0 (fun _ -> Alcotest.fail "body ran for n = 0")

exception Boom of int

let test_pool_reraises () =
  List.iter
    (fun jobs ->
      let raised =
        try
          Pool.parallel_for (Pool.create ~jobs) ~n:64 (fun i ->
              if i mod 13 = 5 then raise (Boom i));
          false
        with Boom _ -> true
      in
      check_bool (Printf.sprintf "exception escapes at jobs = %d" jobs) true raised)
    [ 1; 4 ]

(* Parked workers: a fan-out runs on the caller plus a lent worker, and the
   next fan-out, from a fresh pool value, gets the same worker back. The
   bodies sleep so the worker surely claims a chunk before the caller has
   taken them all. *)
let test_pool_workers_persist () =
  let me = (Domain.self () :> int) in
  let helpers_of pool =
    let ids = Array.make 64 me in
    Pool.parallel_for pool ~n:64 (fun i ->
        Unix.sleepf 0.001;
        ids.(i) <- (Domain.self () :> int));
    List.filter (( <> ) me) (List.sort_uniq compare (Array.to_list ids))
  in
  let first = helpers_of (Pool.create ~jobs:2) in
  check_int "jobs = 2 runs on the caller and one worker" 1 (List.length first);
  check_bool "a fresh pool is lent the same parked worker" true
    (helpers_of (Pool.create ~jobs:2) = first)

(* The first exception surfaces only after every body that started has
   finished; the pool is whole again afterwards. The caller's own body
   raises, once a lent worker is inside a body of its own, so a pool that
   raised before waiting would leave that body running. *)
let test_pool_raise_waits_for_workers () =
  let pool = Pool.create ~jobs:4 in
  let me = Domain.self () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let counts_at_raise =
    try
      Pool.parallel_for pool ~n:64 (fun i ->
          if Domain.self () = me then begin
            let t0 = Unix.gettimeofday () in
            while Atomic.get started = 0 && Unix.gettimeofday () -. t0 < 1.0 do
              Unix.sleepf 0.0001
            done;
            raise (Boom i)
          end;
          Atomic.incr started;
          Unix.sleepf 0.005;
          Atomic.incr finished);
      None
    with Boom _ ->
      let f = Atomic.get finished in
      Some (Atomic.get started, f)
  in
  (match counts_at_raise with
  | None -> Alcotest.fail "the exception did not escape"
  | Some (s, f) -> check_int "every started body finished" s f);
  let n = 500 in
  let hits = Array.make n 0 in
  Pool.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "the next fan-out visits each index once" true
    (Array.for_all (( = ) 1) hits)

(* Two domains fanning out through jobs = 4 pools at once share the parked
   set; each still gets its results in index order. *)
let test_pool_concurrent_callers () =
  let input = List.init 100 Fun.id in
  let expected = List.init 20 (fun r -> List.map (fun i -> i * r) input) in
  let fan_out () =
    let pool = Pool.create ~jobs:4 in
    List.init 20 (fun r ->
        Pool.map_list pool
          (fun i ->
            Unix.sleepf 0.0001;
            i * r)
          input)
  in
  let a = Domain.spawn fan_out and b = Domain.spawn fan_out in
  check_bool "first caller's results in order" true (Domain.join a = expected);
  check_bool "second caller's results in order" true (Domain.join b = expected)

let test_pool_nested_fanout_inlines () =
  (* a worker fanning out on the same pool must not deadlock; it runs the
     inner call inline *)
  let pool = Pool.create ~jobs:4 in
  let got =
    Pool.map_list pool
      (fun i -> List.fold_left ( + ) i (Pool.map_list pool succ [ 1; 2; 3 ]))
      (List.init 32 (fun i -> i))
  in
  check_bool "nested totals" true (got = List.init 32 (fun i -> i + 9))

(* ---------- qcheck: freeze round-trips the graph ---------- *)

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 20 80 in
    return
      (let params =
         { Corpusgen.Apigen.default_params with classes; seed; methods_per_class = 4 }
       in
       let h = Corpusgen.Apigen.generate params in
       (h, Prospector.Sig_graph.build h)))

let prop_freeze_roundtrip =
  QCheck2.Test.make ~name:"freeze preserves nodes, edges, and adjacency order"
    ~count:40 world_gen (fun (_, g) ->
      let fz = Graph.freeze g in
      Graph.frozen_generation fz = Graph.generation g
      && Graph.frozen_node_count fz = Graph.node_count g
      && Graph.frozen_edge_count fz = Graph.edge_count g
      && Graph.frozen_void_node fz = Graph.find_type_node g Jtype.Void
      && List.for_all
           (fun n ->
             Jtype.equal (Graph.frozen_node_type fz n) (Graph.node_type g n)
             && Graph.frozen_is_typestate fz n = Graph.is_typestate g n
             && Graph.frozen_succs fz n = Graph.succs g n)
           (Graph.nodes g)
      && List.for_all
           (fun (ty, n) -> Graph.frozen_find_type_node fz ty = Some n)
           (Graph.real_nodes g))

let prop_frozen_run_equals_live =
  QCheck2.Test.make ~name:"Query.run ~frozen = Query.run" ~count:25 world_gen
    (fun (h, g) ->
      let frozen = Graph.freeze g in
      List.for_all
        (fun q ->
          let live = Query.run ~frozen:(Query.freeze g) ~hierarchy:h q in
          let frz = Query.run ~frozen ~hierarchy:h q in
          List.map (fun (r : Query.result) -> r.Query.jungloid) frz
          = Naive.run g ~hierarchy:h q
          && List.length live = List.length frz
          && List.for_all2
               (fun (a : Query.result) (b : Query.result) ->
                 Prospector.Jungloid.equal a.Query.jungloid b.Query.jungloid
                 && Prospector.Rank.compare_key a.Query.key b.Query.key = 0
                 && a.Query.code = b.Query.code)
               live frz)
        (Corpusgen.Workload.random_queries h g ~count:3 ~seed:7))

(* ---------- byte-identical answers at any job count ---------- *)

let workload () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let qs =
    List.map
      (fun (p : Problems.t) -> Query.query p.Problems.tin p.Problems.tout)
      Problems.all
  in
  (graph, hierarchy, qs)

let check_results_equal name (a : Query.result list) (b : Query.result list) =
  check_int (name ^ ": result count") (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      let n = Printf.sprintf "%s: result %d" name i in
      check_bool
        (n ^ " jungloid")
        true
        (Prospector.Jungloid.equal x.Query.jungloid y.Query.jungloid);
      check_bool
        (n ^ " rank key")
        true
        (Prospector.Rank.compare_key x.Query.key y.Query.key = 0);
      check_string (n ^ " code") x.Query.code y.Query.code)
    (List.combine a b)

let test_batch_deterministic () =
  let graph, hierarchy, qs = workload () in
  (* duplicates exercise the cache-replay phase: the second occurrence must
     be a hit in both runs *)
  let qs = qs @ qs in
  let seq_engine = Query.engine ~graph ~hierarchy () in
  let par_engine = Query.engine ~pool:(Pool.create ~jobs:4) ~graph ~hierarchy () in
  let seq = Query.run_batch seq_engine qs in
  let par = Query.run_batch par_engine qs in
  check_int "same batch length" (List.length seq) (List.length par);
  List.iter2
    (fun ((qa : Query.t), ra) ((qb : Query.t), rb) ->
      check_bool "same query order" true (qa == qb);
      check_results_equal (Jtype.to_string qa.Query.tout) ra rb)
    seq par;
  (* the replay protocol also reproduces the exact cache accounting *)
  check_string "same cache stats"
    (Stats.cache_to_string (Query.engine_stats seq_engine))
    (Stats.cache_to_string (Query.engine_stats par_engine))

let test_mining_deterministic () =
  let hierarchy = Apidata.Api.hierarchy () in
  let prog =
    Minijava.Resolve.parse_program ~api:hierarchy Apidata.Api.corpus_sources
  in
  let df = Mining.Dataflow.build prog in
  let seq = Mining.Extract.extract df in
  let par = Mining.Extract.extract ~pool:(Pool.create ~jobs:4) df in
  check_bool "corpus has examples" true (seq <> []);
  check_bool "mining output identical at jobs = 4" true (seq = par)

(* ---------- the service's snapshot moves only on reload ---------- *)

let stats_graph svc =
  let j = Proto.of_string (Service.handle_line svc "{\"op\": \"stats\"}") in
  match Option.map (fun g -> (Proto.member "nodes" g, Proto.member "generation" g))
          (Proto.member "graph" j)
  with
  | Some (Some (Proto.Int n), Some (Proto.Int gen)) -> (n, gen)
  | _ -> Alcotest.fail "stats without graph.nodes / graph.generation"

(* The engine froze its graph at creation, so the graph is only a builder:
   growing it publishes nothing. A reload op is what moves the snapshot
   readers see. *)
let test_service_snapshot_moves_on_reload () =
  let h = Japi.Loader.load_string "package p; class A { B toB(); } class B { }" in
  let graph = Prospector.Sig_graph.build h in
  let svc = Service.create ~engine:(Query.engine ~graph ~hierarchy:h ()) () in
  let nodes, gen = stats_graph svc in
  check_int "snapshot sees the built graph" (Graph.node_count graph) nodes;
  ignore (Graph.ensure_type_node graph (Jtype.ref_of_string "brand.New"));
  check_bool "a builder mutation moves nothing" true (stats_graph svc = (nodes, gen));
  let reply =
    Service.handle_line svc
      "{\"op\": \"reload\", \"japi\": \"package p; class C { A toA(); }\"}"
  in
  check_bool ("reload applied: " ^ reply) true
    (Proto.member "ok" (Proto.of_string reply) = Some (Proto.Bool true));
  let nodes', gen' = stats_graph svc in
  check_int "the reloaded class is in the snapshot" (nodes + 1) nodes';
  check_bool "the generation moved" true (gen' > gen)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create rejects jobs < 1" `Quick test_pool_create_rejects;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "parallel_for covers every index" `Quick
            test_pool_for_covers_every_index;
          Alcotest.test_case "empty and tiny inputs" `Quick test_pool_empty_and_tiny;
          Alcotest.test_case "exceptions re-raised" `Quick test_pool_reraises;
          Alcotest.test_case "nested fan-out runs inline" `Quick
            test_pool_nested_fanout_inlines;
          Alcotest.test_case "parked workers serve the next pool" `Quick
            test_pool_workers_persist;
          Alcotest.test_case "exception waits for every worker" `Quick
            test_pool_raise_waits_for_workers;
          Alcotest.test_case "concurrent callers keep index order" `Quick
            test_pool_concurrent_callers;
        ] );
      ( "freeze",
        List.map QCheck_alcotest.to_alcotest
          [ prop_freeze_roundtrip; prop_frozen_run_equals_live ] );
      ( "determinism",
        [
          Alcotest.test_case "batch: jobs 4 = jobs 1" `Quick test_batch_deterministic;
          Alcotest.test_case "mining: jobs 4 = jobs 1" `Quick
            test_mining_deterministic;
        ] );
      ( "service",
        [
          Alcotest.test_case "snapshot moves only on reload" `Quick
            test_service_snapshot_moves_on_reload;
        ] );
    ]
