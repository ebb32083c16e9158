(* The best-first top-k search must be invisible in the answers: this suite
   unit-tests its two data structures (the binary heap and the shared-prefix
   path arena), then pins the headline contract — [strategy = BestFirst]
   returns byte-identical results to the exhaustive enumerate-and-sort
   oracle — over the bundled Eclipse graph (Table 1, mined typestate
   duplicates included), the layered synthetic workload, random Apigen
   worlds (qcheck), and the multi-source assist path, while materializing
   no more candidates than the oracle does. At the path cap the oracle
   certifies nothing, so the whole stream, truncated runs included, is
   also held against the replaced implementation in [Ref_topk]. Since both
   strategies share one consumer, that consumer is held against [Naive]'s
   pipeline on its own. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Search = Prospector.Search
module Rank = Prospector.Rank
module Query = Prospector.Query
module Topk = Prospector.Topk
module Sig_graph = Prospector.Sig_graph
module Apigen = Corpusgen.Apigen
module Workload = Corpusgen.Workload
module Problems = Apidata.Problems

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let load = Japi.Loader.load_string

let node g name = Option.get (Graph.find_type_node g (Jtype.ref_of_string name))

(* The first outgoing edge of [u] that lands on the named type (the
   adjacency row also holds widen edges to supertypes). *)
let edge_to g u name =
  let want = Jtype.ref_of_string name in
  List.find
    (fun (e : Graph.edge) -> Jtype.equal (Graph.node_type g e.Graph.dst) want)
    (Graph.succs g u)

(* ---------- the heap ---------- *)

let test_heap_empty () =
  let hp = Topk.Heap.create () in
  check_int "empty length" 0 (Topk.Heap.length hp);
  check_int "empty min_prio" max_int (Topk.Heap.min_prio hp)

let test_heap_pops_sorted () =
  let hp = Topk.Heap.create () in
  (* deterministic pseudo-random priorities, duplicates included *)
  let r = ref 1234 in
  let next () =
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    !r mod 997
  in
  let pushed = List.init 500 (fun _ -> next ()) in
  List.iter (fun p -> Topk.Heap.add hp ~prio:p p) pushed;
  check_int "length after pushes" 500 (Topk.Heap.length hp);
  let popped = List.init 500 (fun _ -> Topk.Heap.pop hp) in
  check_bool "pops in nondecreasing priority order" true
    (popped = List.sort compare pushed);
  check_int "drained" 0 (Topk.Heap.length hp)

let test_heap_interleaved () =
  (* pops interleaved with pushes still always yield the current minimum *)
  let hp = Topk.Heap.create () in
  List.iter (fun p -> Topk.Heap.add hp ~prio:p p) [ 5; 1; 4 ];
  check_int "min of 5,1,4" 1 (Topk.Heap.pop hp);
  Topk.Heap.add hp ~prio:0 0;
  Topk.Heap.add hp ~prio:9 9;
  check_int "min after reinsert" 0 (Topk.Heap.pop hp);
  check_int "then" 4 (Topk.Heap.pop hp);
  check_int "then" 5 (Topk.Heap.pop hp);
  check_int "then" 9 (Topk.Heap.pop hp)

(* ---------- the arena ---------- *)

(* Linear chain A -> B -> C -> D, as in test_core_search. *)
let chain_model () =
  load
    {|
    package p;
    class A { B toB(); }
    class B { C toC(); }
    class C { D toD(); }
    class D { }
    |}

let test_arena_reconstructs_paths () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  let a = node g "p.A" in
  let ea = edge_to g a "p.B" in
  let eb = edge_to g ea.Graph.dst "p.C" in
  let ec = edge_to g eb.Graph.dst "p.D" in
  let ar = Topk.Arena.create () in
  let r0 = Topk.Arena.add_root ar a in
  check_int "root node" a (Topk.Arena.node ar r0);
  check_int "root parent" (-1) (Topk.Arena.parent ar r0);
  check_bool "root path is empty" true
    (Topk.Arena.path ar r0 = { Search.source = a; edges = [] });
  let r1 = Topk.Arena.append ar ~parent:r0 ~ord:0 ea in
  let r2 = Topk.Arena.append ar ~parent:r1 ~ord:0 eb in
  let r3 = Topk.Arena.append ar ~parent:r2 ~ord:0 ec in
  (* a second branch sharing the r1 prefix: rows never get copied *)
  let s2 = Topk.Arena.append ar ~parent:r1 ~ord:1 eb in
  check_int "five rows for two sharing paths" 5 (Topk.Arena.size ar);
  let p = Topk.Arena.path ar r3 in
  check_bool "path source" true (p.Search.source = a);
  check_bool "path edges root-first" true (p.Search.edges = [ ea; eb; ec ]);
  check_bool "ords root-first" true (Topk.Arena.ords_of ar r3 = [| 0; 0; 0 |]);
  check_bool "branch ords" true (Topk.Arena.ords_of ar s2 = [| 0; 1 |]);
  check_int "branch parent" r1 (Topk.Arena.parent ar s2)

let test_arena_on_path () =
  let h = chain_model () in
  let g = Sig_graph.build h in
  let a = node g "p.A" in
  let ea = edge_to g a "p.B" in
  let eb = edge_to g ea.Graph.dst "p.C" in
  let ar = Topk.Arena.create () in
  let r0 = Topk.Arena.add_root ar a in
  let r1 = Topk.Arena.append ar ~parent:r0 ~ord:0 ea in
  let r2 = Topk.Arena.append ar ~parent:r1 ~ord:0 eb in
  check_bool "sees the source" true (Topk.Arena.on_path ar r2 a);
  check_bool "sees an interior node" true
    (Topk.Arena.on_path ar r2 ea.Graph.dst);
  check_bool "sees the head" true (Topk.Arena.on_path ar r2 eb.Graph.dst);
  check_bool "a prefix does not see later nodes" true
    (not (Topk.Arena.on_path ar r1 eb.Graph.dst))

(* ---------- the workspace ---------- *)

(* A best-first enumeration of [q] over [fz] in [memo], set up the way
   [Query]'s best-first source sets it up; [None] when [tout] is
   unreachable. *)
let start_on ~memo ?(limit = Query.default_settings.Query.limit) ~hierarchy fz
    (q : Query.t) =
  match
    (Graph.frozen_find_type_node fz q.Query.tin, Graph.frozen_find_type_node fz q.Query.tout)
  with
  | Some src, Some dst ->
      let dist_to = Search.Csr.distances_to fz ~target:dst in
      let dsrc = Search.Dist.get dist_to src in
      if dsrc = max_int then None
      else
        let off = fz.Graph.f_fwd_off and fin = fz.Graph.f_fwd_end in
        let iter_succs u f =
          for k = off.{u} to fin.{u} - 1 do
            f k fz.Graph.f_fwd_edge.(k)
          done
        in
        Some
          (Topk.start ~memo ~weights:Query.default_settings.Query.weights ~hierarchy
             ~node_type:(Graph.frozen_node_type fz) ~iter_succs
             ~edge_slots:(Array.length fz.Graph.f_fwd_edge)
             ~materialize:(Prospector.Jungloid.of_frozen_path fz) ~dist_to
             ~sources:[ (src, dsrc + Query.default_settings.Query.slack) ]
             ~target:dst ~limit ())
  | _ -> None

(* Up to [cap] candidates, then the enumeration's counters. *)
let drain ~cap st =
  let rec go n acc =
    if n = cap then List.rev acc
    else match Topk.next st with None -> List.rev acc | Some c -> go (n + 1) (c :: acc)
  in
  let cs = go 0 [] in
  (cs, Topk.materialized st, Topk.truncated st)

let same_drain (ca, ma, ta) (cb, mb, tb) =
  ma = mb && ta = tb
  && List.length ca = List.length cb
  && List.for_all2
       (fun (a : Topk.candidate) (b : Topk.candidate) ->
         a.Topk.cand_path = b.Topk.cand_path
         && Prospector.Jungloid.equal a.Topk.cand_jungloid b.Topk.cand_jungloid
         && Rank.compare_key a.Topk.cand_key b.Topk.cand_key = 0)
       ca cb

(* One live enumeration per memo: a later start on the same memo retires
   the earlier one, which must then fail loudly rather than read rows the
   later search has recycled. An enumeration on a memo of its own is never
   retired. *)
let test_memo_epoch_guard () =
  let h = Workload.layered_api ~classes:200 in
  let g = Sig_graph.build h in
  let fz = Graph.freeze g in
  let qa, qb =
    match Workload.random_queries h g ~count:2 ~seed:5 with
    | [ qa; qb ] -> (qa, qb)
    | _ -> Alcotest.fail "expected two queries"
  in
  let m = Topk.Memo.create () in
  let a = Option.get (start_on ~memo:m ~hierarchy:h fz qa) in
  let own = Option.get (start_on ~memo:(Topk.Memo.create ()) ~hierarchy:h fz qa) in
  check_bool "A yields a candidate" true (Topk.next a <> None);
  ignore (Topk.next own);
  let b = Option.get (start_on ~memo:m ~hierarchy:h fz qb) in
  check_bool "A is retired by B's start" true
    (match Topk.next a with exception Invalid_argument _ -> true | _ -> false);
  check_bool "A's counters stay readable" true (Topk.materialized a >= 1);
  let fresh = Option.get (start_on ~memo:(Topk.Memo.create ()) ~hierarchy:h fz qb) in
  check_bool "B runs as on a fresh memo" true
    (same_drain (drain ~cap:20 b) (drain ~cap:20 fresh));
  let again = Option.get (start_on ~memo:(Topk.Memo.create ()) ~hierarchy:h fz qa) in
  ignore (Topk.next again);
  check_bool "an enumeration on its own memo is never retired" true
    (same_drain (drain ~cap:20 own) (drain ~cap:20 again))

(* ---------- strategy spellings ---------- *)

let test_strategy_strings () =
  check_bool "best-first parses" true
    (Query.strategy_of_string "best-first" = Ok Query.BestFirst);
  check_bool "exhaustive parses" true
    (Query.strategy_of_string "exhaustive" = Ok Query.Exhaustive);
  check_bool "to_string round-trips" true
    (List.for_all
       (fun s -> Query.strategy_of_string (Query.strategy_to_string s) = Ok s)
       [ Query.BestFirst; Query.Exhaustive ]);
  check_bool "unknown spelling rejected" true
    (match Query.strategy_of_string "bfs" with
    | Error _ -> true
    | Ok _ -> false)

(* ---------- byte-identical to the exhaustive oracle ---------- *)

let settings_at ~k strategy =
  { Query.default_settings with max_results = k; strategy }

let results_equal (a : Query.result list) (b : Query.result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Query.result) (y : Query.result) ->
         Prospector.Jungloid.equal x.Query.jungloid y.Query.jungloid
         && Rank.compare_key x.Query.key y.Query.key = 0
         && x.Query.code = y.Query.code)
       a b

let test_bundled_equivalence () =
  (* the mined Eclipse graph: downcast edges, typestate duplicates, the
     full Table 1 workload at the default k *)
  let frozen = Query.freeze (Apidata.Api.default_graph ()) in
  let hierarchy = Apidata.Api.hierarchy () in
  List.iter
    (fun (p : Problems.t) ->
      let q = Query.query p.Problems.tin p.Problems.tout in
      let ex =
        Query.run ~settings:(settings_at ~k:10 Query.Exhaustive) ~frozen ~hierarchy q
      in
      let bf = Query.run ~frozen ~hierarchy q (* default = BestFirst, k=10 *) in
      check_bool
        (Printf.sprintf "problem %d identical" p.Problems.id)
        true (results_equal ex bf))
    Problems.all

let test_layered_equivalence () =
  let h = Workload.layered_api ~classes:300 in
  let g = Sig_graph.build h in
  let frozen = Graph.freeze g in
  List.iter
    (fun q ->
      let ex =
        Query.run
          ~settings:(settings_at ~k:10 Query.Exhaustive)
          ~frozen:(Query.freeze g) ~hierarchy:h q
      in
      let bf =
        Query.run
          ~settings:(settings_at ~k:10 Query.BestFirst)
          ~frozen ~hierarchy:h q
      in
      check_bool "layered: best-first = exhaustive" true (results_equal ex bf);
      check_bool "layered: best-first = naive pipeline" true
        (List.map (fun (r : Query.result) -> r.Query.jungloid) bf
        = Naive.run ~settings:(settings_at ~k:10 Query.BestFirst) g ~hierarchy:h q))
    (Workload.random_queries h g ~count:10 ~seed:11)

let test_exhaustion_below_k () =
  (* asking for far more results than exist must terminate, deliver the
     whole solution set, and not claim truncation *)
  let h = chain_model () in
  let g = Sig_graph.build h in
  let q = Query.query "p.A" "p.D" in
  let ex =
    Query.run
      ~settings:(settings_at ~k:10_000 Query.Exhaustive)
      ~frozen:(Query.freeze g) ~hierarchy:h q
  in
  let bf, info =
    Query.run_info
      ~settings:(settings_at ~k:10_000 Query.BestFirst)
      ~frozen:(Query.freeze g) ~hierarchy:h q
  in
  check_bool "everything delivered" true (results_equal ex bf);
  check_bool "at least the chain itself" true (List.length bf >= 1);
  check_bool "not truncated" false info.Query.truncated

let test_truncation_reported () =
  let h = Workload.layered_api ~classes:200 in
  let g = Sig_graph.build h in
  let qs = Workload.random_queries h g ~count:10 ~seed:3 in
  (* a query with more than one within-budget path *)
  let q =
    List.find
      (fun q ->
        let _, i =
          Query.run_info
            ~settings:(settings_at ~k:100 Query.Exhaustive)
            ~frozen:(Query.freeze g) ~hierarchy:h q
        in
        i.Query.candidates > 1)
      qs
  in
  let tight strategy =
    { Query.default_settings with max_results = 100; strategy; limit = 1 }
  in
  let _, exi =
    Query.run_info ~settings:(tight Query.Exhaustive) ~frozen:(Query.freeze g) ~hierarchy:h q
  in
  let _, bfi =
    Query.run_info ~settings:(tight Query.BestFirst) ~frozen:(Query.freeze g) ~hierarchy:h q
  in
  check_bool "exhaustive reports truncation" true exi.Query.truncated;
  check_bool "best-first reports truncation" true bfi.Query.truncated

let test_multi_equivalence () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let ty = Jtype.ref_of_string in
  List.iter
    (fun (vars, tout) ->
      let at strategy =
        Query.run_multi
          ~settings:{ Query.default_settings with strategy }
          ~frozen:(Query.freeze graph) ~hierarchy ~vars ~tout:(ty tout) ()
      in
      let ex = at Query.Exhaustive and bf = at Query.BestFirst in
      check_int "multi: same count" (List.length ex) (List.length bf);
      List.iter2
        (fun (a : Query.multi_result) (b : Query.multi_result) ->
          check_bool "multi: same source var" true
            (a.Query.source_var = b.Query.source_var);
          check_bool "multi: same jungloid" true
            (Prospector.Jungloid.equal a.Query.result.Query.jungloid
               b.Query.result.Query.jungloid);
          check_string "multi: same code" a.Query.result.Query.code
            b.Query.result.Query.code)
        ex bf)
    [
      ( [
          ("ep", ty "org.eclipse.ui.IEditorPart");
          ("page", ty "org.eclipse.ui.IWorkbenchPage");
        ],
        "org.eclipse.ui.texteditor.IDocumentProvider" );
      (* full rank-key ties: chains that differ only in a free receiver's
         type ([Document] or [Element] before [getElementsByTagName]) must
         resolve in enumeration order under both strategies *)
      ([], "org.w3c.dom.NodeList");
    ]

(* ---------- configuration-fallback warnings ---------- *)

let test_fallback_warnings () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let q = Query.query "org.eclipse.ui.IEditorPart" "org.eclipse.core.resources.IFile" in
  (* healthy configuration: no warnings *)
  let _, info = Query.run_info ~frozen:(Query.freeze graph) ~hierarchy q in
  check_bool "default run reports no warnings" true (info.Query.warnings = []);
  (* a negative freevar charge voids the best-first certificate: the run
     must fall back to the exhaustive strategy AND say so (the fallback was
     silent before info.warnings existed) *)
  let ablation =
    {
      Query.default_settings with
      weights = { Rank.default_weights with Rank.freevar_cost = -1 };
    }
  in
  let rs_bf, info_bf = Query.run_info ~settings:ablation ~frozen:(Query.freeze graph) ~hierarchy q in
  check_int "negative freevar_cost: one warning" 1
    (List.length info_bf.Query.warnings);
  check_bool "warning names the exhaustive fallback" true
    (let w = List.hd info_bf.Query.warnings in
     let contains sub =
       let n = String.length sub and m = String.length w in
       let rec go i = i + n <= m && (String.sub w i n = sub || go (i + 1)) in
       go 0
     in
     contains "freevar_cost" && contains "exhaustive");
  (* the fallback serves the exhaustive answers, not a broken best-first *)
  let rs_ex =
    Query.run
      ~settings:{ ablation with strategy = Query.Exhaustive }
      ~frozen:(Query.freeze graph) ~hierarchy q
  in
  check_bool "fallback answers = exhaustive answers" true
    (results_equal rs_ex rs_bf)

(* ---------- qcheck: random Apigen worlds ---------- *)

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 20 80 in
    return
      (let params =
         {
           Corpusgen.Apigen.default_params with
           classes;
           seed;
           methods_per_class = 4;
         }
       in
       let h = Corpusgen.Apigen.generate params in
       (h, Sig_graph.build h)))

let prop_best_first_equals_exhaustive =
  QCheck2.Test.make
    ~name:"BestFirst = first k of exhaustive Rank.sort (random APIs)"
    ~count:25 world_gen (fun (h, g) ->
      let frozen = Graph.freeze g in
      List.for_all
        (fun q ->
          List.for_all
            (fun k ->
              let ex, exi =
                Query.run_info
                  ~settings:(settings_at ~k Query.Exhaustive)
                  ~frozen:(Query.freeze g) ~hierarchy:h q
              in
              let bf, bfi =
                Query.run_info
                  ~settings:(settings_at ~k Query.BestFirst)
                  ~frozen:(Query.freeze g) ~hierarchy:h q
              in
              let bz =
                Query.run
                  ~settings:(settings_at ~k Query.BestFirst)
                  ~frozen ~hierarchy:h q
              in
              (* an exhaustive oracle that hit the path limit certifies
                 nothing; skip (never happens at these sizes in practice) *)
              exi.Query.truncated
              || results_equal ex bf
                 && results_equal ex bz
                 && bfi.Query.candidates <= exi.Query.candidates)
            [ 1; 3; 10 ])
        (Corpusgen.Workload.random_queries h g ~count:3 ~seed:7))

(* The reused workspace must be invisible: one memo carried through a
   sequence of enumerations answers each exactly as a fresh memo does.
   Running the largest first leaves every later, shorter enumeration on
   stale rows, heap entries and edge stamps. The small [limit] makes some
   runs stop truncated. *)
let prop_shared_memo_equals_fresh =
  QCheck2.Test.make ~name:"Topk on one shared memo = on a fresh memo per query"
    ~count:25 world_gen (fun (h, g) ->
      let fz = Graph.freeze g in
      let runs =
        List.concat_map
          (fun q -> [ (q, Query.default_settings.Query.limit); (q, 3) ])
          (Corpusgen.Workload.random_queries h g ~count:4 ~seed:17)
      in
      let fresh (q, limit) =
        Option.map (drain ~cap:50)
          (start_on ~memo:(Topk.Memo.create ()) ~limit ~hierarchy:h fz q)
      in
      let expected = List.map (fun r -> (r, fresh r)) runs in
      let size = function None -> 0 | Some (cs, _, _) -> List.length cs in
      let largest_first =
        List.stable_sort (fun (_, a) (_, b) -> compare (size b) (size a)) expected
      in
      let m = Topk.Memo.create () in
      List.for_all
        (fun ((q, limit), want) ->
          let got = Option.map (drain ~cap:50) (start_on ~memo:m ~limit ~hierarchy:h fz q) in
          match (got, want) with
          | None, None -> true
          | Some x, Some y -> same_drain x y
          | _ -> false)
        largest_first)

let prop_estimated_freevars_equal =
  (* the freevar_cost_of estimation path reweighs the priority's charge
     component; the equivalence must survive it *)
  QCheck2.Test.make
    ~name:"BestFirst = exhaustive under estimate_freevars" ~count:15 world_gen
    (fun (h, g) ->
      let at strategy =
        {
          Query.default_settings with
          strategy;
          estimate_freevars = true;
          max_results = 10;
        }
      in
      let frozen = Query.freeze g in
      List.for_all
        (fun q ->
          let ex = Query.run ~settings:(at Query.Exhaustive) ~frozen ~hierarchy:h q in
          let bf = Query.run ~settings:(at Query.BestFirst) ~frozen ~hierarchy:h q in
          results_equal ex bf)
        (Corpusgen.Workload.random_queries h g ~count:3 ~seed:13))

(* ---------- the replaced Topk as an oracle ---------- *)

(* [Ref_topk] is the search as it was before successor reuse, lazy rows
   and the flat tables: it rescans a node's whole adjacency row on every
   expansion and writes each prefix's row at its push. The heap
   receives the same priorities in the same order in both, so their whole
   streams agree — which paths complete before [limit] stops the search
   included, where no exhaustive oracle certifies anything. One memo serves
   every production run of the property, across worlds, so its node
   chains, successor slices, rows and edge stamps are always stale; the
   reference gets a fresh memo per run. *)
let shared_memo = Topk.Memo.create ()

let stream next materialized truncated st =
  let rec go acc = match next st with None -> List.rev acc | Some c -> go (c :: acc) in
  let cs = go [] in
  (cs, materialized st, truncated st)

(* A free-variable estimator that gives the charge, and with it each
   successor's priority increment, a per-type spread. *)
let spread_estimator ty = 1 + (Hashtbl.hash (Jtype.to_string ty) mod 3)

let prop_matches_reference =
  QCheck2.Test.make
    ~name:"Topk = the reference Topk, drained (limit, slack, sources)" ~count:15
    world_gen (fun (h, g) ->
      let fz = Graph.freeze g in
      let qs = Workload.random_queries h g ~count:4 ~seed:41 in
      let off = fz.Graph.f_fwd_off and fin = fz.Graph.f_fwd_end in
      let iter_succs u f =
        for k = off.{u} to fin.{u} - 1 do
          f k fz.Graph.f_fwd_edge.(k)
        done
      in
      let weights = Query.default_settings.Query.weights in
      let node_type = Graph.frozen_node_type fz in
      let edge_slots = Array.length fz.Graph.f_fwd_edge in
      let materialize = Prospector.Jungloid.of_frozen_path fz in
      let tins =
        List.sort_uniq compare
          (List.filter_map (fun (q : Query.t) -> Graph.frozen_find_type_node fz q.Query.tin) qs)
      in
      List.for_all
        (fun (q : Query.t) ->
          match
            (Graph.frozen_find_type_node fz q.Query.tin, Graph.frozen_find_type_node fz q.Query.tout)
          with
          | Some src, Some target ->
              let dist_to = Search.Csr.distances_to fz ~target in
              let d s = Search.Dist.get dist_to s in
              (* every sampled input that reaches [target], each with its
                 own slack, so the roots' budgets differ *)
              let reaching = List.filter (fun s -> d s < max_int) tins in
              List.for_all
                (fun (slack, limit, multi) ->
                  let sources =
                    if multi then List.mapi (fun i s -> (s, d s + ((slack + i) mod 4))) reaching
                    else [ (src, d src + slack) ]
                  in
                  let freevar_cost_of = if multi then Some spread_estimator else None in
                  let got =
                    stream Topk.next Topk.materialized Topk.truncated
                      (Topk.start ?freevar_cost_of ~memo:shared_memo ~weights ~hierarchy:h
                         ~node_type ~iter_succs ~edge_slots ~materialize ~dist_to ~sources
                         ~target ~limit ())
                  in
                  let want =
                    stream Ref_topk.next Ref_topk.materialized Ref_topk.truncated
                      (Ref_topk.start ?freevar_cost_of ~memo:(Ref_topk.Memo.create ()) ~weights
                         ~hierarchy:h ~node_type ~iter_succs ~edge_slots ~materialize
                         ~dist_to ~sources ~target ~limit ())
                  in
                  same_drain got want)
                (List.concat_map
                   (fun slack ->
                     List.concat_map
                       (fun limit -> [ (slack, limit, false); (slack, limit, true) ])
                       [ 1; 3; 20; 4096 ])
                   [ 0; 1; 2; 3 ])
          | _ -> true)
        qs)

(* ---------- the shared consumer against the naive pipeline ---------- *)

(* Both strategies feed one consumer, so the suites above cannot see a bug
   in its dedup, truncation, keys or codegen: it would show on both sides
   alike. [Naive.run] and [Naive.run_multi] rebuild that pipeline from the
   naive enumeration instead, and the code of each result is held against
   [Naive.to_java], the key against [Rank.key]. The limit stays far above
   the few thousand paths these worlds have at slack 2, so no run stops at
   the path cap. *)
let key_fields (k : Rank.key) =
  Rank.(k.length, k.crossings, k.specificity, k.interior, k.tie)

let prop_consumer_equals_naive =
  QCheck2.Test.make
    ~name:"run and run_multi = the naive pipeline (k, slack)"
    ~count:20 world_gen (fun (h, g) ->
      let frozen = Graph.freeze g in
      let qs = Corpusgen.Workload.random_queries h g ~count:3 ~seed:23 in
      let code var j =
        let input = Option.map (fun n -> (n, Prospector.Jungloid.input_type j)) var in
        Naive.to_java ?input j
      in
      List.for_all
        (fun (q : Query.t) ->
          (* two variables of [tin]'s type, listed against name order so
             that their suggestions must be regrouped, and one of another
             query's *)
          let vars =
            [ ("c", q.Query.tin); ("b", (List.hd qs).Query.tin); ("a", q.Query.tin) ]
          in
          List.for_all
            (fun (strategy, max_results, slack) ->
              let settings =
                {
                  Query.default_settings with
                  strategy;
                  max_results;
                  slack;
                  limit = 100_000;
                }
              in
              let result (r : Query.result) =
                (r.Query.jungloid, r.Query.code, key_fields r.Query.key)
              in
              let expected j = key_fields (Rank.key h j) in
              let single =
                Query.run ~settings ~frozen ~hierarchy:h q
                |> List.map result
              in
              let multi =
                Query.run_multi ~settings ~frozen ~hierarchy:h ~vars
                  ~tout:q.Query.tout ()
                |> List.map (fun (m : Query.multi_result) ->
                       (m.Query.source_var, result m.Query.result))
              in
              single
              = List.map
                  (fun j -> (j, code None j, expected j))
                  (Naive.run ~settings g ~hierarchy:h q)
              && multi
                 = List.map
                     (fun (var, j) -> (var, (j, code var j, expected j)))
                     (Naive.run_multi ~settings g ~hierarchy:h ~vars
                        ~tout:q.Query.tout))
            (List.concat_map
               (fun strategy ->
                 List.concat_map
                   (fun k -> List.map (fun slack -> (strategy, k, slack)) [ 0; 1; 2 ])
                   [ 0; 1; 10 ])
               [ Query.BestFirst; Query.Exhaustive ]))
        qs)

(* ---------- the renderers against their references ---------- *)

(* Each production renderer writes one buffer in one pass; [Naive] renders
   with input-outward [Printf] folds. Every mode of every renderer must
   agree byte for byte: plain and qualified code, with and without a named
   input. *)
let renders_like_naive (j : Prospector.Jungloid.t) =
  let module J = Prospector.Jungloid in
  let module C = Prospector.Codegen in
  let input = ("input", J.input_type j) in
  J.to_expression j = Naive.to_expression j
  && J.to_string j = Naive.to_string j
  && List.for_all
       (fun qualified ->
         C.to_java ~qualified j = Naive.to_java ~qualified j
         && C.to_java ~input ~qualified j = Naive.to_java ~input ~qualified j)
       [ false; true ]

let wide = { Query.default_settings with max_results = 50; slack = 2 }

let test_bundled_renderers () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  List.iter
    (fun (p : Problems.t) ->
      let rs =
        Query.run ~settings:wide ~frozen:(Query.freeze graph) ~hierarchy
          (Query.query p.Problems.tin p.Problems.tout)
      in
      check_bool
        (Printf.sprintf "problem %d renders as the reference" p.Problems.id)
        true
        (List.for_all (fun (r : Query.result) -> renders_like_naive r.Query.jungloid) rs))
    Problems.all

let prop_renderers_equal_naive =
  QCheck2.Test.make ~name:"renderers = the naive Printf renderers (random APIs)"
    ~count:25 world_gen (fun (h, g) ->
      let frozen = Graph.freeze g in
      List.for_all
        (fun q ->
          List.for_all
            (fun (r : Query.result) -> renders_like_naive r.Query.jungloid)
            (Query.run ~settings:wide ~frozen ~hierarchy:h q))
        (Corpusgen.Workload.random_queries h g ~count:5 ~seed:29))

(* Apigen class names are unique, so no two sources there tie on the full
   rank key (its text shows the input's simple name). Two [Doc]s in
   different packages do: [x.get()] from either renders and ranks alike,
   and the consumer must order the pair by variable name, not by source
   node. *)
let test_cross_source_ties () =
  let h =
    Japi.Loader.load_files
      [
        ("a", "package pa; class Doc { t.T get(); }");
        ("b", "package pb; class Doc { t.T get(); }");
        ("t", "package t; class T { }");
      ]
  in
  let g = Sig_graph.build h in
  let vars = [ ("z", Jtype.ref_of_string "pa.Doc"); ("y", Jtype.ref_of_string "pb.Doc") ] in
  let tout = Jtype.ref_of_string "t.T" in
  let want = Naive.run_multi g ~hierarchy:h ~vars ~tout in
  check_bool "the two sources tie" true
    (List.filter_map (fun (v, _) -> v) want = [ "y"; "z" ]);
  List.iter
    (fun strategy ->
      let got =
        Query.run_multi
          ~settings:{ Query.default_settings with strategy }
          ~frozen:(Query.freeze g) ~hierarchy:h ~vars ~tout ()
      in
      check_bool
        (Query.strategy_to_string strategy ^ " = naive")
        true
        (List.map (fun (m : Query.multi_result) -> (m.Query.source_var, m.Query.result.Query.jungloid)) got
        = want))
    [ Query.BestFirst; Query.Exhaustive ]

let () =
  Alcotest.run "topk"
    [
      ( "heap",
        [
          Alcotest.test_case "empty heap" `Quick test_heap_empty;
          Alcotest.test_case "pops sorted" `Quick test_heap_pops_sorted;
          Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reconstructs shared-prefix paths" `Quick
            test_arena_reconstructs_paths;
          Alcotest.test_case "on_path walks the parent chain" `Quick
            test_arena_on_path;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "a later start retires the memo's enumeration"
            `Quick test_memo_epoch_guard;
          QCheck_alcotest.to_alcotest prop_shared_memo_equals_fresh;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "spellings round-trip" `Quick test_strategy_strings;
          Alcotest.test_case "configuration fallbacks warn" `Quick test_fallback_warnings;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "bundled Eclipse graph, Table 1" `Quick
            test_bundled_equivalence;
          Alcotest.test_case "layered synthetic, CSR view" `Quick
            test_layered_equivalence;
          Alcotest.test_case "exhaustion below k" `Quick test_exhaustion_below_k;
          Alcotest.test_case "truncation reported by both strategies" `Quick
            test_truncation_reported;
          Alcotest.test_case "multi-source assist path" `Quick
            test_multi_equivalence;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_best_first_equals_exhaustive; prop_estimated_freevars_equal ] );
      ( "consumer",
        Alcotest.test_case "cross-source full-key ties order by variable" `Quick
          test_cross_source_ties
        :: List.map QCheck_alcotest.to_alcotest [ prop_consumer_equals_naive ] );
      ( "render",
        [
          Alcotest.test_case "bundled Eclipse graph, Table 1" `Quick
            test_bundled_renderers;
          QCheck_alcotest.to_alcotest prop_renderers_equal_naive;
        ] );
    ]
