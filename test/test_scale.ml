(* Million-method-scale plumbing, shrunk to test size: the package-cone
   shard router must be invisible in batch answers (qcheck, over locality
   worlds where the planner actually engages), pooled search scratch must
   not leak between queries, and the mega generator must be a pure
   function of its seed. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query
module Search = Prospector.Search
module Reach = Prospector.Reach
module Shard = Prospector.Shard

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

(* ---------- qcheck: sharded batches ---------- *)

let world_gen ~locality =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 60 160 in
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
       (h, Prospector.Sig_graph.build h)))

(* [run_batch]'s routing rule: a query goes to its target's shard when the
   target has a package group and that shard is small enough to build. *)
let routed_to_shard engine frozen (q : Query.t) =
  match Query.engine_shards engine with
  | None -> false
  | Some sh -> (
      match Graph.frozen_find_type_node frozen q.Query.tout with
      | None -> false
      | Some dst -> (
          match Shard.route sh ~target:dst with
          | None -> false
          | Some s -> Option.is_some (Shard.sub sh s)))

let prop_sharded_batch_oracle =
  QCheck2.Test.make ~name:"sharded run_batch = sequential whole-graph oracle"
    ~count:15 (world_gen ~locality:0.9) (fun (h, g) ->
      let frozen = Graph.freeze g in
      let qs =
        Corpusgen.Workload.random_queries h g ~count:6 ~seed:5
        @ Corpusgen.Workload.random_misses g ~count:2 ~seed:6
      in
      (* Two jobs: at one, [run_batch] answers every query on the whole
         snapshot and never routes one to a shard. *)
      let engine =
        Query.engine_of_frozen ~pool:(Prospector_parallel.Pool.create ~jobs:2)
          ~frozen ~hierarchy:h ()
      in
      let batch = Query.run_batch engine qs in
      if not (List.exists (routed_to_shard engine frozen) qs) then
        QCheck2.Test.fail_report "no query was routed to a shard";
      List.length batch = List.length qs
      && List.for_all2
           (fun (q', rs) q ->
             q' = q && results_equal rs (Query.run ~frozen ~hierarchy:h q))
           batch qs)

(* ---------- shard plan invariants ---------- *)

let test_shards_engage () =
  let h, g = mega_world 4000 in
  let frozen = Graph.freeze g in
  let reach = Reach.build_frozen frozen in
  match Shard.plan frozen reach with
  | None -> Alcotest.fail "planner declined a locality mega world"
  | Some sh ->
      check_bool "more than one shard" true (Shard.shard_count sh > 1);
      let n = Graph.frozen_node_count frozen in
      for s = 0 to Shard.shard_count sh - 1 do
        match Shard.sub sh s with
        | None -> ()
        | Some sub ->
            let pmap = Shard.to_parent sh s in
            check_bool "sub node count matches its parent map" true
              (Graph.frozen_node_count sub = Array.length pmap);
            check_bool "sub is a strict subgraph" true
              (Graph.frozen_node_count sub < n);
            check_bool "parent ids are valid and ascending" true
              (Array.for_all (fun u -> u >= 0 && u < n) pmap
              &&
              let asc = ref true in
              for i = 1 to Array.length pmap - 1 do
                if pmap.(i - 1) >= pmap.(i) then asc := false
              done;
              !asc)
      done;
      (* routing: every type node lands either in no shard (miss or hub) or
         in one whose sub-snapshot the engine can substitute *)
      List.iter
        (fun (_, node) ->
          match Shard.route sh ~target:node with
          | None -> ()
          | Some s ->
              check_bool "routed shard exists" true
                (s >= 0 && s < Shard.shard_count sh))
        (Graph.real_nodes g);
      ignore h

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
        List.map QCheck_alcotest.to_alcotest
          [ prop_sharded_batch_oracle ] );
      ( "shard",
        [ Alcotest.test_case "plan engages and stays consistent" `Quick
            test_shards_engage ] );
      ( "kernels",
        [ Alcotest.test_case "scratch reuse and cone pruning" `Quick
            test_kernel_scratch_and_cone ] );
      ( "mega",
        [ Alcotest.test_case "deterministic in the seed" `Quick
            test_mega_deterministic ] );
    ]
