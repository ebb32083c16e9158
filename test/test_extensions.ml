(* Tests for the extensions beyond the paper's core: result clustering (the
   future work the paper proposes for crowded queries) and free-variable
   cost estimation. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------- clustering ---------- *)

let test_cluster_groups_parallel_jungloids () =
  let h =
    Japi.Loader.load_string
      {|
      package p;
      class A { B viaOne(); B viaTwo(); C toC(); }
      class B { T finish(); }
      class C { T make(); }
      class T { }
      |}
  in
  let g = Prospector.Sig_graph.build h in
  let rs = Query.run ~frozen:(Query.freeze g) ~hierarchy:h (Query.query "p.A" "p.T") in
  (* four length-2 jungloids: two through B (parallel), one through C *)
  check_int "three results" 3 (List.length rs);
  let cs = Query.cluster rs in
  check_int "two clusters" 2 (List.length cs);
  let through_b = List.find (fun c -> contains ~sub:"> B >" c.Query.type_path) cs in
  check_int "B cluster has both" 2 through_b.Query.members

let test_cluster_preserves_rank_order () =
  let g = Apidata.Api.default_graph () in
  let h = Apidata.Api.hierarchy () in
  let rs =
    Query.run ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "java.lang.String" "java.io.BufferedReader")
  in
  let cs = Query.cluster rs in
  check_bool "clusters exist" true (cs <> []);
  (* first cluster's representative is the overall top result *)
  check_string "first representative is rank 1"
    (List.hd rs).Query.code
    (List.hd cs).Query.representative.Query.code

let test_cluster_rescues_crowded_query () =
  (* Row 20 of Table 1: the desired (IWorkspace, IFile) solution is crowded
     past rank 5; one-representative-per-cluster brings its type path into
     the first few entries — the paper's proposed fix, working. *)
  let g = Apidata.Api.default_graph () in
  let h = Apidata.Api.hierarchy () in
  let settings = { Query.default_settings with max_results = 100 } in
  let rs =
    Query.run ~settings ~frozen:(Query.freeze g) ~hierarchy:h
      (Query.query "org.eclipse.core.resources.IWorkspace"
         "org.eclipse.core.resources.IFile")
  in
  let desired r = contains ~sub:".getProject(" r.Query.code && contains ~sub:".getFile(" r.Query.code in
  let flat_rank =
    List.mapi (fun i r -> (i + 1, r)) rs
    |> List.find_opt (fun (_, r) -> desired r)
    |> Option.map fst
  in
  check_bool "flat list: crowded beyond 5" true
    (match flat_rank with Some r -> r > 5 | None -> false);
  let cs = Query.cluster rs in
  let cluster_rank =
    List.mapi (fun i c -> (i + 1, c)) cs
    |> List.find_opt (fun (_, c) -> desired c.Query.representative)
    |> Option.map fst
  in
  check_bool "clustered: within the first 6" true
    (match cluster_rank with Some r -> r <= 6 | None -> false)

(* ---------- free-variable cost estimation (paper future work) ---------- *)

let test_freevar_estimation_reorders () =
  (* Both candidates have length 1 plus one reference free variable; the
     constant charge ties them (text order favors viaDear), but the
     estimator knows a Cheap is one static call away while a Dear cannot be
     produced at all — so the Cheap-consuming jungloid wins. *)
  let h =
    Japi.Loader.load_string
      {|
      package p;
      class T { }
      class Cheap { static Cheap make(); }
      class Strange { }
      class Exotic { Exotic(Strange s); }
      class Dear { Dear(Exotic e); }
      class A {
        T viaDear(Dear d);
        T viaZCheap(Cheap c);
      }
      |}
  in
  let g = Prospector.Sig_graph.build h in
  let q = Query.query "p.A" "p.T" in
  let top settings =
    match Query.run ~settings ~frozen:(Query.freeze g) ~hierarchy:h q with
    | r :: _ -> r.Query.code
    | [] -> Alcotest.fail "no results"
  in
  check_bool "constant charge: textual tie favors viaDear" true
    (contains ~sub:"viaDear" (top Query.default_settings));
  check_bool "estimator favors the producible free variable" true
    (contains ~sub:"viaZCheap"
       (top { Query.default_settings with estimate_freevars = true }))

let test_freevar_estimation_table1_not_worse () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let found settings =
    Apidata.Problems.run_all ~settings ~graph ~hierarchy ()
    |> List.filter Apidata.Problems.found |> List.length
  in
  let default = found Query.default_settings in
  let estimated = found { Query.default_settings with estimate_freevars = true } in
  check_bool
    (Printf.sprintf "estimation finds at least as many (%d >= %d)" estimated default)
    true (estimated >= default)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "cluster",
        [
          tc "groups parallel jungloids" test_cluster_groups_parallel_jungloids;
          tc "preserves rank order" test_cluster_preserves_rank_order;
          tc "rescues crowded query" test_cluster_rescues_crowded_query;
        ] );
      ( "freevar estimation",
        [
          tc "reorders by production cost" test_freevar_estimation_reorders;
          tc "table 1 not worse" test_freevar_estimation_table1_not_worse;
        ] );
    ]
