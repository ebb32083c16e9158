(* Million-method-scale plumbing, shrunk to test size: a batch must answer
   exactly what one query at a time answers, at any pool size (qcheck),
   pooled search scratch must not leak between queries, and the mega
   generator must be a pure function of its seed. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query
module Search = Prospector.Search
module Reach = Prospector.Reach

let check_bool = Alcotest.(check bool)

let mega_world methods =
  let h = Corpusgen.Workload.mega_api ~methods in
  (h, Prospector.Sig_graph.build h)

let results_equal (a : Query.result list) (b : Query.result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Query.result) (y : Query.result) ->
         Prospector.Jungloid.equal x.Query.jungloid y.Query.jungloid
         && Prospector.Rank.compare_key x.Query.key y.Query.key = 0
         && x.Query.code = y.Query.code)
       a b

(* ---------- qcheck: batches ---------- *)

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 60 160 in
    let* locality = oneofl [ 0.; 0.9 ] in
    let* estimate_freevars = bool in
    return
      (let params =
         {
           Corpusgen.Apigen.default_params with
           classes;
           packages = 12;
           locality;
           seed;
         }
       in
       let h = Corpusgen.Apigen.generate params in
       (h, Prospector.Sig_graph.build h, estimate_freevars)))

(* Two passes through a 4-entry cache: the duplicates are hits, the second
   pass evicts entries that were cached when it started, and both job
   counts must replay the same cache accounting as well as the same
   answers. *)
let prop_batch_oracle =
  QCheck2.Test.make ~name:"run_batch = Query.run, one and two jobs" ~count:15
    world_gen (fun (h, g, estimate_freevars) ->
      let frozen = Graph.freeze g in
      let settings = { Query.default_settings with estimate_freevars } in
      let solvable = Corpusgen.Workload.random_queries h g ~count:6 ~seed:5 in
      let qs =
        solvable
        @ Corpusgen.Workload.random_misses g ~count:2 ~seed:6
        @ List.filteri (fun i _ -> i mod 2 = 0) solvable
      in
      let oracle =
        List.map (fun q -> (q, Query.run ~settings ~frozen ~hierarchy:h q)) qs
      in
      let same batch =
        List.length batch = List.length oracle
        && List.for_all2
             (fun (q', rs) (q, want) -> q' == q && results_equal rs want)
             batch oracle
      in
      let at jobs =
        let engine =
          Query.engine_of_frozen ~cache_capacity:4
            ~pool:(Prospector_parallel.Pool.create ~jobs) ~frozen ~hierarchy:h ()
        in
        let first = Query.run_batch ~settings engine qs in
        let second = Query.run_batch ~settings engine qs in
        (same first && same second, Query.engine_stats engine)
      in
      let ok1, stats1 = at 1 and ok2, stats2 = at 2 in
      ok1 && ok2 && stats1 = stats2)

(* ---------- CSR kernels: scratch reuse and cone pruning ---------- *)

let test_kernel_scratch_and_cone () =
  let _, g = mega_world 3000 in
  let frozen = Graph.freeze g in
  let reach = Reach.build_frozen frozen in
  let n = Graph.frozen_node_count frozen in
  let target =
    let rec pick = function
      | [] -> Alcotest.fail "no target with a cone"
      | (_, node) :: rest ->
          if Reach.cone reach ~target:node <> None then node else pick rest
    in
    pick (Graph.real_nodes g)
  in
  let base =
    Search.Dist.snapshot ~n (Search.Csr.distances_to frozen ~target)
  in
  let scratch = Search.Scratch.create () in
  let reused =
    Search.Scratch.with_frame scratch (fun () ->
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~scratch frozen ~target))
  in
  check_bool "pooled scratch = fresh lanes" true (base = reused);
  (* run the frame twice more so epoch stamping actually has stale lanes *)
  let reused2 =
    Search.Scratch.with_frame scratch (fun () ->
        ignore
          (Search.Csr.distances_from ~scratch frozen ~sources:[ target ]
            : Search.Dist.t);
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~scratch frozen ~target))
  in
  check_bool "stale pooled lanes are invisible" true (base = reused2);
  match Reach.cone reach ~target with
  | None -> ()
  | Some (cone, _) ->
      let pruned =
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~cone frozen ~target)
      in
      check_bool "cone-pruned distances = unpruned" true (base = pruned)

(* ---------- mega generator determinism ---------- *)

let sorted_decls h = List.sort compare (Javamodel.Hierarchy.decls h)

let test_mega_deterministic () =
  let d1 = sorted_decls (Corpusgen.Apigen.mega ~methods:2_000 ()) in
  let d2 = sorted_decls (Corpusgen.Apigen.mega ~methods:2_000 ()) in
  check_bool "same seed, same world" true
    (List.equal Javamodel.Decl.equal d1 d2);
  let d3 = sorted_decls (Corpusgen.Apigen.mega ~seed:7 ~methods:2_000 ()) in
  check_bool "different seed, different world" true
    (not (List.equal Javamodel.Decl.equal d1 d3));
  let count =
    List.fold_left
      (fun acc (d : Javamodel.Decl.t) -> acc + List.length d.methods)
      0 d1
  in
  check_bool "method budget within 25%" true (abs (count - 2_000) < 500)

let () =
  Alcotest.run "scale"
    [
      ( "identity",
        List.map QCheck_alcotest.to_alcotest [ prop_batch_oracle ] );
      ( "kernels",
        [ Alcotest.test_case "scratch reuse and cone pruning" `Quick
            test_kernel_scratch_and_cone ] );
      ( "mega",
        [ Alcotest.test_case "deterministic in the seed" `Quick
            test_mega_deterministic ] );
    ]
