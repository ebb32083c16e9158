(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation, the Section 5 performance measurements, and the ablations
   called out in DESIGN.md, then runs Bechamel micro-benchmarks of the core
   operations.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- table1  (one section)

   Sections: table1 perf figure8 figures mining_accuracy rank_ablation
             search_bound cap_sweep objparam cache analysis server\n             parallel topk rank refine proto micro                        *)

module Query = Prospector.Query
module Sig_graph = Prospector.Sig_graph
module Stats = Prospector.Stats
module Problems = Apidata.Problems
module Pool = Prospector_parallel.Pool

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Seconds on CLOCK_MONOTONIC (bechamel's stub), the one clock every timing
   here reads: unlike the wall clock, NTP cannot step it mid-measurement. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time_of f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ------------------------------------------------------------------ *)
(* Table 1: query processing                                           *)
(* ------------------------------------------------------------------ *)

let section_table1 () =
  rule "Table 1 — query processing (paper rank vs measured rank)";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let ms = Problems.run_all ~graph ~hierarchy () in
  Printf.printf "%-46s %-38s %-6s %-6s %s\n" "Programming problem" "query (tin, tout)"
    "paper" "ours" "time(s)";
  let simple s =
    match List.rev (String.split_on_char '.' s) with x :: _ -> x | [] -> s
  in
  List.iter
    (fun (m : Problems.measured) ->
      let p = m.Problems.problem in
      Printf.printf "%-46s %-38s %-6s %-6s %.3f\n" p.Problems.description
        (Printf.sprintf "(%s, %s)" (simple p.Problems.tin) (simple p.Problems.tout))
        (match p.Problems.paper with
        | Problems.Rank r -> string_of_int r
        | Problems.Not_found -> "No")
        (match m.Problems.rank with Some r -> string_of_int r | None -> "No")
        m.Problems.time_s)
    ms;
  let found = List.filter Problems.found ms in
  let rank1 = List.filter (fun (m : Problems.measured) -> m.Problems.rank = Some 1) ms in
  let avg_time =
    List.fold_left (fun a (m : Problems.measured) -> a +. m.Problems.time_s) 0.0 ms
    /. float_of_int (List.length ms)
  in
  Printf.printf
    "\nfound: %d/20 (paper 18/20); rank 1: %d (paper 11); average time %.3fs (paper 0.23s)\n"
    (List.length found) (List.length rank1) avg_time

(* ------------------------------------------------------------------ *)
(* Extended evaluation: 18 more problems over the broadened model       *)
(* ------------------------------------------------------------------ *)

let section_extended () =
  rule "Extended evaluation — 18 additional problems (beyond the paper)";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let ms = Apidata.Extended.run_all ~graph ~hierarchy () in
  Printf.printf "%-50s %-8s %-8s\n" "Programming problem" "bound" "measured";
  List.iter
    (fun (m : Apidata.Extended.measured) ->
      Printf.printf "%-50s <=%-6d %-8s\n"
        m.Apidata.Extended.problem.Apidata.Extended.description
        m.Apidata.Extended.problem.Apidata.Extended.max_rank
        (match m.Apidata.Extended.rank with
        | Some r -> string_of_int r
        | None -> "No"))
    ms;
  let ok = List.filter Apidata.Extended.ok ms in
  let rank1 = List.filter (fun (m : Apidata.Extended.measured) -> m.Apidata.Extended.rank = Some 1) ms in
  Printf.printf "\nfound within bound: %d/%d; rank 1: %d\n" (List.length ok)
    (List.length ms) (List.length rank1)

(* ------------------------------------------------------------------ *)
(* Section 5: performance                                              *)
(* ------------------------------------------------------------------ *)

let percentile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* The builder's own heap: every word the graph keeps alive beyond the
   hierarchy it was built from (its edges share the declarations' member
   records and types). A count, not a timing, so it is exact and repeats
   from run to run. *)
let graph_words g h =
  Obj.reachable_words (Obj.repr (g, h)) - Obj.reachable_words (Obj.repr h)

let kib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1024.

let section_perf () =
  rule "Section 5 — performance measurements";
  let load_t, hierarchy =
    time_of (fun () -> Japi.Loader.load_files Apidata.Api.api_sources)
  in
  Printf.printf "API model load (parse + resolve):        %.4f s (paper: 1.5 s)\n" load_t;
  let build_t, graph = time_of (fun () -> Sig_graph.build hierarchy) in
  Printf.printf "signature graph construction:            %.4f s\n" build_t;
  Printf.printf "signature graph heap (beyond the model): %.1f KiB\n"
    (kib_of_words (graph_words graph hierarchy));
  let mine_t, _ =
    time_of (fun () -> Mining.Enrich.enrich graph (Apidata.Api.program ()))
  in
  Printf.printf "corpus mining + enrichment:              %.4f s\n" mine_t;
  let frozen = Query.freeze graph in
  Printf.printf "\n%s\n" (Stats.to_string (Stats.of_graph graph));
  let times_curated =
    List.map
      (fun (p : Problems.t) ->
        fst
          (time_of (fun () ->
               Query.run ~frozen ~hierarchy (Query.query p.Problems.tin p.Problems.tout))))
      Problems.all
  in
  let synth_h = Corpusgen.Workload.scaling_api ~classes:2000 in
  let synth_build_t, synth_g = time_of (fun () -> Sig_graph.build synth_h) in
  let qs = Corpusgen.Workload.random_queries synth_h synth_g ~count:40 ~seed:9 in
  let synth_fz = Query.freeze synth_g in
  let times_synth =
    List.map
      (fun q -> fst (time_of (fun () -> Query.run ~frozen:synth_fz ~hierarchy:synth_h q)))
      qs
  in
  let all_times = times_curated @ times_synth in
  let frac_under t =
    float_of_int (List.length (List.filter (fun x -> x < t) all_times))
    /. float_of_int (List.length all_times)
  in
  Printf.printf "synthetic graph: 2000 classes, built in %.3f s (%s)\n" synth_build_t
    (let s = Stats.of_graph synth_g in
     Printf.sprintf "%d nodes, %d edges" s.Stats.nodes s.Stats.edges);
  Printf.printf "\nquery latency over %d queries (curated + synthetic):\n"
    (List.length all_times);
  Printf.printf "  max    %.4f s   (paper: all under 1.1 s)\n"
    (List.fold_left max 0.0 all_times);
  Printf.printf "  p85    %.4f s   (paper: 85%% under 0.5 s)\n" (percentile all_times 0.85);
  Printf.printf "  median %.4f s\n" (percentile all_times 0.5);
  Printf.printf "  under 0.5 s: %.0f%%   under 1.1 s: %.0f%%\n" (100.0 *. frac_under 0.5)
    (100.0 *. frac_under 1.1)

(* ------------------------------------------------------------------ *)
(* Scaling sweep: build and query time vs API size                     *)
(* ------------------------------------------------------------------ *)

let section_scaling () =
  rule "Scaling — graph construction and query latency vs API size";
  Printf.printf "%-10s %-10s %-10s %-14s %-14s %-14s\n" "classes" "nodes" "edges"
    "build (s)" "graph (KiB)" "query p50 (s)";
  List.iter
    (fun classes ->
      let h = Corpusgen.Workload.scaling_api ~classes in
      let build_t, g = time_of (fun () -> Sig_graph.build h) in
      let graph_kib = kib_of_words (graph_words g h) in
      let qs = Corpusgen.Workload.random_queries h g ~count:20 ~seed:17 in
      let frozen = Query.freeze g in
      let times =
        List.map (fun q -> fst (time_of (fun () -> Query.run ~frozen ~hierarchy:h q))) qs
      in
      let s = Stats.of_graph g in
      Printf.printf "%-10d %-10d %-10d %-14.4f %-14.1f %-14.5f\n" classes s.Stats.nodes
        s.Stats.edges build_t graph_kib (percentile times 0.5))
    [ 250; 500; 1000; 2000; 4000 ]

(* ------------------------------------------------------------------ *)
(* Figure 8: the user study                                            *)
(* ------------------------------------------------------------------ *)

let section_figure8 () =
  rule "Figure 8 — user study (simulated; see DESIGN.md for the model)";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let s = Simstudy.Study_sim.simulate ~graph ~hierarchy Apidata.Study.all in
  print_string (Simstudy.Study_sim.render_figure8 s);
  print_endline
    "(paper: ~2x on problems 1-3, parity on problem 4; 10 of 13 users faster,\n\
    \ average speedup 1.9; baseline often resorted to reimplementation)";
  (* robustness: the headline speedup across independent seeds *)
  let speedups =
    List.map
      (fun seed ->
        (Simstudy.Study_sim.simulate ~seed ~graph ~hierarchy Apidata.Study.all)
          .Simstudy.Study_sim.avg_speedup)
      [ 1; 2; 3; 5; 8; 13; 21; 42; 99; 2005 ]
  in
  let mean = List.fold_left ( +. ) 0.0 speedups /. 10.0 in
  let lo = List.fold_left min infinity speedups in
  let hi = List.fold_left max 0.0 speedups in
  Printf.printf "speedup across 10 seeds: mean %.2fx, range [%.2fx, %.2fx]\n" mean lo hi

(* ------------------------------------------------------------------ *)
(* Figures 1, 3, 6: graph structure                                    *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Every BENCH_*.json is stamped with the size of the model it measured
   (total methods) and the tree it was measured on, so archived numbers stay
   traceable when quoted outside the repo. [git describe --dirty] marks a
   tree with uncommitted changes: a file regenerated before its commit is
   stamped "<parent>-dirty", not with the bare parent hash. *)
let commit_id =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let hier_methods h =
  Javamodel.Hierarchy.fold h ~init:0 ~f:(fun n d ->
      n + List.length d.Javamodel.Decl.methods)

let write_bench ~model_methods path json =
  let stamp =
    Printf.sprintf "\n  \"model_methods\": %d,\n  \"commit\": %S," model_methods
      (Lazy.force commit_id)
  in
  let i = String.index json '{' in
  write_file path
    (String.sub json 0 (i + 1)
    ^ stamp
    ^ String.sub json (i + 1) (String.length json - i - 1))

let section_figures () =
  rule "Figures 1, 3, 6 — graph excerpts (DOT)";
  let hierarchy = Apidata.Api.hierarchy () in
  let g1 = Apidata.Api.signature_graph () in
  let centers =
    List.map Javamodel.Jtype.ref_of_string
      [
        "org.eclipse.core.resources.IFile";
        "org.eclipse.jdt.core.ICompilationUnit";
        "org.eclipse.jdt.core.dom.ASTNode";
      ]
  in
  write_file "fig1_signature_graph.dot" (Prospector.Dot.subgraph g1 ~centers ~radius:1);
  let g3 = Apidata.Api.signature_graph () in
  let added = Sig_graph.add_all_downcasts g3 hierarchy in
  write_file "fig3_naive_downcasts.dot"
    (Prospector.Dot.subgraph g3
       ~centers:
         (List.map Javamodel.Jtype.ref_of_string
            [
              "org.eclipse.jface.viewers.ISelection";
              "org.eclipse.jdt.internal.debug.ui.display.JavaInspectExpression";
            ])
       ~radius:1);
  (* An inviable query: nothing ever casts an SWT Image to a
     JavaInspectExpression, but the naive graph offers the bare
     Object-to-JavaInspectExpression cast one widening away. *)
  let spurious_q =
    Query.query "org.eclipse.swt.graphics.Image"
      "org.eclipse.jdt.internal.debug.ui.display.JavaInspectExpression"
  in
  let spurious = Query.run ~frozen:(Query.freeze g3) ~hierarchy spurious_q in
  let shortest g =
    match
      ( Prospector.Graph.find_type_node g spurious_q.Query.tin,
        Prospector.Graph.find_type_node g spurious_q.Query.tout )
    with
    | Some src, Some dst ->
        Prospector.Search.Csr.shortest_cost (Prospector.Graph.freeze g)
          ~sources:[ src ] ~target:dst
    | _ -> None
  in
  Printf.printf
    "naive downcasts: %d edges added; (Image, JavaInspectExpression) now has %d \
     jungloids, the shortest only %s elementary jungloid(s) long —\n\
     the short inviable casts the paper's Figure 3 warns about\n"
    added (List.length spurious)
    (match shortest g3 with Some m -> string_of_int m | None -> "-");
  let g6, _ = Apidata.Api.jungloid_graph () in
  let sel =
    Javamodel.Jtype.ref_of_string "org.eclipse.jface.viewers.IStructuredSelection"
  in
  let jie =
    Javamodel.Jtype.ref_of_string
      "org.eclipse.jdt.internal.debug.ui.display.JavaInspectExpression"
  in
  write_file "fig6_jungloid_graph.dot"
    (Prospector.Dot.subgraph g6 ~centers:[ sel; jie ] ~radius:2);
  let viable = Query.run ~frozen:(Query.freeze g6) ~hierarchy spurious_q in
  Printf.printf
    "jungloid graph: the same query's shortest candidate is %s elementary jungloids \
     long (%d results) — every downcast is reachable only through a mined, blessed \
     chain; the one-step nonsense cast is gone\n"
    (match shortest g6 with Some m -> string_of_int m | None -> "-")
    (List.length viable)

(* ------------------------------------------------------------------ *)
(* Section 4.4 ablation: mining accuracy                               *)
(* ------------------------------------------------------------------ *)

let section_mining_accuracy () =
  rule "Ablation — mining accuracy vs corpus coverage (Section 4.4)";
  Printf.printf "%-10s %-22s %-22s %-22s\n" "coverage" "generalize min_keep=1"
    "no generalization" "generalize min_keep=0";
  List.iter
    (fun coverage ->
      let t =
        Corpusgen.Truthgen.generate
          { Corpusgen.Truthgen.default_params with producers = 20; coverage; seed = 13 }
      in
      let s1 = Corpusgen.Truthgen.score ~generalize:true ~min_keep:1 t in
      let s2 = Corpusgen.Truthgen.score ~generalize:false t in
      let s3 = Corpusgen.Truthgen.score ~generalize:true ~min_keep:0 t in
      let cell (s : Corpusgen.Truthgen.score) =
        Printf.sprintf "C=%.2f P=%.2f" s.Corpusgen.Truthgen.completeness
          s.Corpusgen.Truthgen.precision
      in
      Printf.printf "%-10.2f %-22s %-22s %-22s\n" coverage (cell s1) (cell s2) (cell s3))
    [ 0.25; 0.5; 0.75; 1.0 ];
  (* The overgeneralization hazard needs an unconflicted example: with a
     single covered producer, min_keep=0 collapses the suffix to the bare
     cast and precision craters. *)
  let single = Array.init 20 (fun i -> i = 0) in
  let t =
    Corpusgen.Truthgen.generate_with ~covered:single
      { Corpusgen.Truthgen.default_params with producers = 20; seed = 13 }
  in
  let s1 = Corpusgen.Truthgen.score ~generalize:true ~min_keep:1 t in
  let s3 = Corpusgen.Truthgen.score ~generalize:true ~min_keep:0 t in
  Printf.printf "%-10s C=%.2f P=%.2f %22s C=%.2f P=%.2f\n" "1 example"
    s1.Corpusgen.Truthgen.completeness s1.Corpusgen.Truthgen.precision ""
    s3.Corpusgen.Truthgen.completeness s3.Corpusgen.Truthgen.precision;
  (* Flow-sensitivity ablation: one method reuses a single Object variable
     across producers — viable code whose flow-insensitive slice conflates
     the reassignments (the imprecision source the paper names). *)
  let t =
    Corpusgen.Truthgen.generate
      { Corpusgen.Truthgen.default_params with producers = 10; reuse_variable = true; seed = 5 }
  in
  let si = Corpusgen.Truthgen.score ~tin:"void" t in
  let ss = Corpusgen.Truthgen.score ~flow_sensitive:true ~tin:"void" t in
  Printf.printf "%-10s C=%.2f P=%.2f (paper's flow-insensitive slicer)\n" "reuse-var"
    si.Corpusgen.Truthgen.completeness si.Corpusgen.Truthgen.precision;
  Printf.printf "%-10s C=%.2f P=%.2f (flow-sensitive ablation)\n" ""
    ss.Corpusgen.Truthgen.completeness ss.Corpusgen.Truthgen.precision;
  print_endline
    "(C: fraction of viable downcast jungloids synthesizable from the query's input\n\
    \ type; P: fraction of synthesized downcast jungloids viable under ground truth.\n\
    \ Without generalization examples keep their full prefixes and the queries fail;\n\
    \ min_keep=0 can overgeneralize an unconflicted example to a bare cast.)"

(* ------------------------------------------------------------------ *)
(* Ablation: ranking heuristic variants                                *)
(* ------------------------------------------------------------------ *)

let section_rank_ablation () =
  rule "Ablation — ranking heuristic variants on Table 1";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let run_with ?(estimate = false) name weights =
    let settings = { Query.default_settings with weights; estimate_freevars = estimate } in
    let ms = Problems.run_all ~settings ~graph ~hierarchy () in
    let found = List.filter Problems.found ms in
    let ranks = List.filter_map (fun (m : Problems.measured) -> m.Problems.rank) ms in
    let mean_rank =
      if ranks = [] then 0.0
      else float_of_int (List.fold_left ( + ) 0 ranks) /. float_of_int (List.length ranks)
    in
    let rank1 =
      List.length
        (List.filter (fun (m : Problems.measured) -> m.Problems.rank = Some 1) ms)
    in
    Printf.printf "%-34s found %2d/20   rank-1 %2d   mean rank %.2f\n" name
      (List.length found) rank1 mean_rank
  in
  let w = Prospector.Rank.default_weights in
  run_with "full heuristic (paper)" w;
  run_with "no package tiebreak" { w with Prospector.Rank.package_tiebreak = false };
  run_with "no generality tiebreak" { w with Prospector.Rank.generality_tiebreak = false };
  run_with "length only"
    { w with Prospector.Rank.package_tiebreak = false; generality_tiebreak = false };
  run_with "free variables not charged" { w with Prospector.Rank.freevar_cost = 0 };
  run_with "free variables cost 4" { w with Prospector.Rank.freevar_cost = 4 };
  run_with ~estimate:true "free variables cost estimated (future work)" w

(* ------------------------------------------------------------------ *)
(* Ablation: search bound (paths of cost <= m + slack)                 *)
(* ------------------------------------------------------------------ *)

let section_search_bound () =
  rule "Ablation — path enumeration bound m+k (the paper fixes k=1)";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  List.iter
    (fun slack ->
      let settings = { Query.default_settings with slack; max_results = 1000 } in
      let t0 = now () in
      let ms = Problems.run_all ~settings ~graph ~hierarchy () in
      let dt = now () -. t0 in
      let found = List.length (List.filter Problems.found ms) in
      let candidates =
        List.fold_left
          (fun a (m : Problems.measured) -> a + List.length m.Problems.results)
          0 ms
      in
      Printf.printf
        "m+%d: found %2d/20, %4d candidates across the 20 queries, %.3f s total\n" slack
        found candidates dt)
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Ablation: extraction cap (Section 4.2's blowup)                     *)
(* ------------------------------------------------------------------ *)

let section_cap_sweep () =
  rule "Ablation — per-cast extraction cap on a branchy corpus";
  let h, corpus = Corpusgen.Workload.branchy_corpus ~branches:64 in
  let prog = Minijava.Resolve.parse_program ~api:h corpus in
  let df = Mining.Dataflow.build prog in
  List.iter
    (fun cap ->
      let t, examples =
        time_of (fun () -> Mining.Extract.extract ~max_per_cast:cap df)
      in
      Printf.printf "cap %4d: %4d examples extracted in %.4f s\n" cap
        (List.length examples) t)
    [ 4; 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* Ablation: Section 4.3 Object/String-parameter mining                *)
(* ------------------------------------------------------------------ *)

let section_objparam () =
  rule "Ablation — Object/String-parameter mining (Section 4.3)";
  let hierarchy = Apidata.Api.hierarchy () in
  let prog = Apidata.Api.program () in
  (* The motivating call: IDocumentProvider.getDocument(Object element) —
     declared to accept anything, actually wanting editor inputs. *)
  let q = Query.query "org.eclipse.ui.IEditorInput" "org.eclipse.jface.text.IDocument" in
  let unrestricted = Sig_graph.build hierarchy in
  let r1 = Query.run ~frozen:(Query.freeze unrestricted) ~hierarchy q in
  let config = { Sig_graph.default_config with restrict_obj_string_params = true } in
  let restricted = Sig_graph.build ~config hierarchy in
  let r2 = Query.run ~frozen:(Query.freeze restricted) ~hierarchy q in
  let mined = Sig_graph.build ~config hierarchy in
  let stats = Mining.Objparam.enrich mined prog in
  let r3 = Query.run ~frozen:(Query.freeze mined) ~hierarchy q in
  Printf.printf "query (IEditorInput, IDocument), via getDocument(Object):\n";
  Printf.printf "  unrestricted signature graph:        %d results\n" (List.length r1);
  Printf.printf "  Object/String params restricted:     %d results\n" (List.length r2);
  Printf.printf "  + mined argument examples:           %d results (%d sites, %d edges)\n"
    (List.length r3) stats.Mining.Objparam.sites stats.Mining.Objparam.edges_added

(* ------------------------------------------------------------------ *)
(* Reach rejection and the LRU query cache                             *)
(* ------------------------------------------------------------------ *)

(* Every timing here is a median over [cache_rounds] passes. Each A/B pair
   first runs one untimed warm-up pass of both sides, then alternates which
   side goes first from round to round. Timed once each with the index-free
   side first, the synthetic pair below reads 1.1-1.4x; alternated medians
   read about 1. *)
let cache_rounds = 7

let median xs = percentile xs 0.5

let median_time ~rounds f = median (List.init rounds (fun _ -> fst (time_of f)))

(* The results of both warm-up passes, and each side's median time. *)
let ab_medians ~rounds a b =
  let ra = a () and rb = b () in
  let ta = ref [] and tb = ref [] in
  let timed f acc = acc := fst (time_of f) :: !acc in
  for round = 1 to rounds do
    if round mod 2 = 1 then begin
      timed a ta;
      timed b tb
    end
    else begin
      timed b tb;
      timed a ta
    end
  done;
  (median !ta, ra, median !tb, rb)

let section_cache () =
  rule "Reach rejection and LRU cache";
  let rounds = cache_rounds in
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let qs =
    List.map (fun (p : Problems.t) -> Query.query p.Problems.tin p.Problems.tout)
      Problems.all
  in
  let nq = List.length qs in
  let frozen = Query.freeze graph in
  let build_t = median_time ~rounds (fun () -> Prospector.Reach.build_frozen frozen) in
  let reach = Prospector.Reach.build_frozen frozen in
  (* The index only rejects: a solvable query runs the same search with or
     without it, so on Table 1 (all solvable) both sides should tie. *)
  let no_index_t, baseline, index_t, indexed =
    ab_medians ~rounds
      (fun () -> List.map (fun q -> Query.run ~frozen ~hierarchy q) qs)
      (fun () -> List.map (fun q -> Query.run ~reach ~frozen ~hierarchy q) qs)
  in
  let n_nodes = Prospector.Reach.node_count reach in
  let avg_cone ~reach ~frozen qs =
    let fractions =
      List.filter_map
        (fun (q : Query.t) ->
          Option.map
            (fun dst ->
              float_of_int (Prospector.Reach.cone_size reach ~target:dst)
              /. float_of_int (Prospector.Reach.node_count reach))
            (Prospector.Graph.frozen_find_type_node frozen q.Query.tout))
        qs
    in
    List.fold_left ( +. ) 0.0 fractions /. float_of_int (max 1 (List.length fractions))
  in
  let cone = avg_cone ~reach ~frozen qs in
  let same = baseline = indexed in
  Printf.printf "one warm-up pass, then medians of %d alternating rounds\n" rounds;
  Printf.printf "reach index: %d nodes, %d SCCs, built in %.4f s\n" n_nodes
    (Prospector.Reach.scc_count reach) build_t;
  Printf.printf "average cone of a target: %.1f%% of the graph\n" (100.0 *. cone);
  Printf.printf "Table 1 workload (%d queries), uncached:\n" nq;
  Printf.printf "  no index: %.4f s    with index: %.4f s    ratio %.2fx\n" no_index_t
    index_t (no_index_t /. index_t);
  Printf.printf "  results with index identical to without: %b\n" same;
  (* The same on a large layered synthetic graph, where a target's cone is a
     small fraction of the graph. Its queries are all solvable too. *)
  let synth_h = Corpusgen.Workload.layered_api ~classes:2000 in
  let synth_g = Sig_graph.build synth_h in
  let synth_qs = Corpusgen.Workload.random_queries synth_h synth_g ~count:40 ~seed:23 in
  let synth_fz = Query.freeze synth_g in
  let sbuild_t =
    median_time ~rounds (fun () -> Prospector.Reach.build_frozen synth_fz)
  in
  let synth_reach = Prospector.Reach.build_frozen synth_fz in
  let run_all ?reach qs () =
    List.map (fun q -> Query.run ?reach ~frozen:synth_fz ~hierarchy:synth_h q) qs
  in
  let s_no_index_t, sbase, s_index_t, sindexed =
    ab_medians ~rounds (run_all synth_qs) (run_all ~reach:synth_reach synth_qs)
  in
  let sn = Prospector.Reach.node_count synth_reach in
  let savg_cone = avg_cone ~reach:synth_reach ~frozen:synth_fz synth_qs in
  let ssame = sbase = sindexed in
  Printf.printf
    "synthetic graph (%d nodes, %d queries): average cone %.1f%%\n" sn
    (List.length synth_qs) (100.0 *. savg_cone);
  Printf.printf
    "  no index: %.4f s    with index: %.4f s    ratio %.2fx (index built in %.4f s)\n"
    s_no_index_t s_index_t (s_no_index_t /. s_index_t) sbuild_t;
  Printf.printf "  results with index identical to without: %b\n" ssame;
  (* Unsolvable queries — the common case when exploring an unfamiliar API,
     and the one the index is for. Without it each costs a search that
     finds nothing; with it, one bitset probe. *)
  let miss_qs = Corpusgen.Workload.random_misses synth_g ~count:40 ~seed:29 in
  let m_no_index_t, mbase, m_index_t, mindexed =
    ab_medians ~rounds (run_all miss_qs) (run_all ~reach:synth_reach miss_qs)
  in
  let msame = mbase = mindexed && List.for_all (fun r -> r = []) mindexed in
  Printf.printf "unsolvable queries (%d), O(1) rejection:\n" (List.length miss_qs);
  Printf.printf "  no index: %.4f s    with index: %.4f s    speedup %.0fx\n" m_no_index_t
    m_index_t (m_no_index_t /. m_index_t);
  Printf.printf "  results with index identical to without (all empty): %b\n" msame;
  (* The LRU cache: the first pass of a fresh engine (which also builds its
     index), then many warm passes over one of those engines. *)
  let engines = List.init rounds (fun _ -> Query.engine ~graph ~hierarchy ()) in
  let colds = List.map (fun e -> time_of (fun () -> Query.run_batch e qs)) engines in
  let cold_t = median (List.map fst colds) in
  let e = List.hd engines in
  let warm_passes = 100 in
  let warm = ref [] in
  let warm_t =
    median_time ~rounds (fun () ->
        for _ = 1 to warm_passes do
          warm := Query.run_batch e qs
        done)
    /. float_of_int warm_passes
  in
  let speedup = cold_t /. warm_t in
  let csame =
    List.map snd !warm = baseline
    && List.for_all (fun (_, cold) -> List.map snd cold = baseline) colds
  in
  Printf.printf "cache: cold pass %.4f s; warm pass %.6f s (avg of %d); speedup %.0fx\n"
    cold_t warm_t warm_passes speedup;
  Printf.printf "  warm results identical to uncached baseline: %b\n" csame;
  Printf.printf "  %s\n" (Prospector.Stats.cache_to_string (Query.engine_stats e));
  let json =
    Printf.sprintf
      "{\n\
      \  \"queries\": %d,\n\
      \  \"no_index_s\": %.6f,\n\
      \  \"index_s\": %.6f,\n\
      \  \"index_ratio\": %.3f,\n\
      \  \"reach_build_s\": %.6f,\n\
      \  \"reach_nodes\": %d,\n\
      \  \"reach_sccs\": %d,\n\
      \  \"avg_cone_fraction\": %.4f,\n\
      \  \"cold_s\": %.6f,\n\
      \  \"warm_s\": %.6f,\n\
      \  \"warm_passes\": %d,\n\
      \  \"cache_speedup\": %.1f,\n\
      \  \"synthetic\": {\n\
      \    \"nodes\": %d,\n\
      \    \"queries\": %d,\n\
      \    \"no_index_s\": %.6f,\n\
      \    \"index_s\": %.6f,\n\
      \    \"index_ratio\": %.3f,\n\
      \    \"reach_build_s\": %.6f,\n\
      \    \"avg_cone_fraction\": %.4f,\n\
      \    \"miss_queries\": %d,\n\
      \    \"miss_no_index_s\": %.6f,\n\
      \    \"miss_index_s\": %.6f,\n\
      \    \"miss_speedup\": %.1f\n\
      \  }\n\
       }\n"
      nq no_index_t index_t (no_index_t /. index_t) build_t n_nodes
      (Prospector.Reach.scc_count reach)
      cone cold_t warm_t warm_passes speedup sn (List.length synth_qs) s_no_index_t
      s_index_t (s_no_index_t /. s_index_t) sbuild_t savg_cone (List.length miss_qs)
      m_no_index_t m_index_t (m_no_index_t /. m_index_t)
  in
  write_bench ~model_methods:(hier_methods hierarchy) "BENCH_cache.json" json;
  if not (same && ssame && msame && csame) then begin
    prerr_endline
      "error: cache gate failed (results with the reach index or from the cache \
       differ from the uncached, index-free baseline)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Analyzer: verifier overhead and lint pass timings                   *)
(* ------------------------------------------------------------------ *)

(* What does re-checking every answer with the verifier cost per query,
   and what do the standalone passes cost over everything we ship? The
   verified pass runs [Query.run] and then [Verify.sound] on each result,
   as a caller that wants checked answers would; the verifier re-typechecks
   every ranked chain, so its price scales with results per query, not
   with search effort — on the Table 1 workload it should be noise next to
   the search itself. [chains_unsound] counts results the verifier rejects:
   0 on a healthy pipeline. One timed pass of each side read -10% to +31%
   overhead over six runs of one tree (2 vCPUs), so the two are timed as
   [bench cache] times its pairs ([ab_medians]). *)

let section_analysis () =
  rule "Analyzer — verifier overhead and lint pass timings";
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let qs =
    List.map (fun (p : Problems.t) -> Query.query p.Problems.tin p.Problems.tout)
      Problems.all
  in
  let nq = List.length qs in
  let passes = 10 in
  let frozen = Query.freeze graph in
  let run_passes f () =
    let last = ref [] in
    for _ = 1 to passes do
      last := List.map f qs
    done;
    !last
  in
  (* Each side returns what its warm-up pass saw: the verified one counts
     (chains checked, unsound) over its [passes] passes. *)
  let plain_t, plain, verified_t, (checked, unsound) =
    ab_medians ~rounds:cache_rounds
      (run_passes (fun q -> Query.run ~frozen ~hierarchy q))
      (fun () ->
        let checked = ref 0 and unsound = ref 0 in
        ignore
          (run_passes
             (fun q ->
               List.iter
                 (fun (r : Query.result) ->
                   incr checked;
                   if not (Analysis.Verify.sound hierarchy r.Query.jungloid) then
                     incr unsound)
                 (Query.run ~frozen ~hierarchy q))
             ());
        (!checked, !unsound))
  in
  let per_q t = t *. 1000.0 /. float_of_int (passes * nq) in
  Printf.printf "Table 1 workload (%d queries, %d passes, median of %d rounds):\n" nq
    passes cache_rounds;
  Printf.printf "  unverified: %.3f ms/query    verified: %.3f ms/query    overhead %.1f%%\n"
    (per_q plain_t) (per_q verified_t)
    (100.0 *. ((verified_t /. plain_t) -. 1.0));
  Printf.printf "  chains checked: %d, unsound: %d\n" checked unsound;
  (* Standalone pass timings over the shipped model, corpus, and solutions. *)
  let chains =
    List.concat plain |> List.map (fun (r : Query.result) -> r.Query.jungloid)
  in
  let nchains = List.length chains in
  let verify_t, _ =
    time_of (fun () ->
        List.iter (fun j -> ignore (Analysis.Verify.check hierarchy j)) chains)
  in
  let gencheck_t, _ =
    time_of (fun () ->
        List.iter (fun j -> ignore (Analysis.Gencheck.check hierarchy j)) chains)
  in
  let apilint_t, api_ds = time_of (fun () -> Analysis.Apilint.lint ~graph hierarchy) in
  let prog =
    Minijava.Resolve.parse_program ~api:hierarchy Apidata.Api.corpus_sources
  in
  let corpuslint_t, corpus_ds =
    time_of (fun () -> Analysis.Corpuslint.lint_program prog)
  in
  Printf.printf "standalone passes:\n";
  Printf.printf "  verify:     %d chains in %.4f s (%.1f us/chain)\n" nchains verify_t
    (1e6 *. verify_t /. float_of_int (max 1 nchains));
  Printf.printf "  gencheck:   %d chains in %.4f s (%.1f us/chain)\n" nchains
    gencheck_t
    (1e6 *. gencheck_t /. float_of_int (max 1 nchains));
  Printf.printf "  apilint:    model+graph in %.4f s (%d findings)\n" apilint_t
    (List.length api_ds);
  Printf.printf "  corpuslint: %d methods in %.4f s (%d findings)\n"
    (List.length prog.Minijava.Tast.methods)
    corpuslint_t (List.length corpus_ds);
  let json =
    Printf.sprintf
      "{\n\
      \  \"queries\": %d,\n\
      \  \"passes\": %d,\n\
      \  \"rounds\": %d,\n\
      \  \"unverified_ms_per_query\": %.4f,\n\
      \  \"verified_ms_per_query\": %.4f,\n\
      \  \"verify_overhead_fraction\": %.4f,\n\
      \  \"chains_checked\": %d,\n\
      \  \"chains_unsound\": %d,\n\
      \  \"solutions\": %d,\n\
      \  \"verify_us_per_chain\": %.2f,\n\
      \  \"gencheck_us_per_chain\": %.2f,\n\
      \  \"apilint_s\": %.6f,\n\
      \  \"apilint_findings\": %d,\n\
      \  \"corpuslint_s\": %.6f,\n\
      \  \"corpuslint_findings\": %d\n\
       }\n"
      nq passes cache_rounds (per_q plain_t) (per_q verified_t)
      ((verified_t /. plain_t) -. 1.0)
      checked unsound nchains
      (1e6 *. verify_t /. float_of_int (max 1 nchains))
      (1e6 *. gencheck_t /. float_of_int (max 1 nchains))
      apilint_t (List.length api_ds) corpuslint_t (List.length corpus_ds)
  in
  write_bench ~model_methods:(hier_methods hierarchy) "BENCH_analysis.json" json

(* ------------------------------------------------------------------ *)
(* Server: warm-daemon throughput vs one-shot CLI cost                 *)
(* ------------------------------------------------------------------ *)

(* The daemon's reason to exist, in numbers: a one-shot CLI invocation pays
   the full world build (API load, graph, mining) for a single answer; the
   warm daemon pays it once and amortises. Latencies are measured
   client-side over a real loopback socket, so they include the protocol
   and transport, not just the engine. *)

let section_server () =
  rule "Server — warm-daemon throughput vs one-shot CLI cost";
  let module Proto = Prospector_server.Proto in
  let module Service = Prospector_server.Service in
  let module Server = Prospector_server.Server in
  let q0 = Query.query "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry" in
  let oneshot_t, _ =
    time_of (fun () ->
        let h = Japi.Loader.load_files Apidata.Api.api_sources in
        let g = Sig_graph.build h in
        ignore
          (Mining.Enrich.enrich g
             (Minijava.Resolve.parse_program ~api:h Apidata.Api.corpus_sources));
        ignore (Query.run ~frozen:(Query.freeze g) ~hierarchy:h q0))
  in
  Printf.printf "one-shot CLI cost (load + build + mine + 1 query): %.4f s\n" oneshot_t;
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let service = Service.create ~engine:(Query.engine ~graph ~hierarchy ()) () in
  let config = { Server.default_config with Server.port = 0; workers = 4 } in
  let srv = Server.create ~config service in
  Server.start srv;
  let port = Server.port srv in
  let lines =
    List.filteri (fun i _ -> i < 6) Problems.all
    |> List.map (fun (p : Problems.t) ->
           Proto.to_string
             (Proto.envelope_to_json
                {
                  Proto.id = Proto.Null;
                  req =
                    Proto.Query
                      {
                        tin = p.Problems.tin;
                        tout = p.Problems.tout;
                        overrides = Proto.defaults;
                      };
                }))
    |> Array.of_list
  in
  let run_client n_requests =
    let ic, oc =
      Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    in
    let lats = ref [] in
    for i = 0 to n_requests - 1 do
      let line = lines.(i mod Array.length lines) in
      let t0 = now () in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      ignore (input_line ic);
      lats := (now () -. t0) :: !lats
    done;
    (try Unix.shutdown_connection ic with _ -> ());
    close_in_noerr ic;
    !lats
  in
  (* prime the daemon's query caches so we measure the steady state *)
  ignore (run_client (Array.length lines));
  let requests = 300 in
  let seq_t, seq_lats = time_of (fun () -> run_client requests) in
  let seq_rps = float_of_int requests /. seq_t in
  let seq_p50 = percentile seq_lats 0.50 *. 1000.0 in
  let seq_p95 = percentile seq_lats 0.95 *. 1000.0 in
  Printf.printf
    "warm daemon, 1 client:   %d requests in %.3f s  (%.0f req/s, p50 %.3f ms, p95 %.3f ms)\n"
    requests seq_t seq_rps seq_p50 seq_p95;
  let n_clients = 4 in
  let per_client = 100 in
  let results = Array.make n_clients [] in
  let conc_t, () =
    time_of (fun () ->
        let ts =
          List.init n_clients (fun k ->
              Thread.create (fun () -> results.(k) <- run_client per_client) ())
        in
        List.iter Thread.join ts)
  in
  let conc_n = n_clients * per_client in
  let conc_rps = float_of_int conc_n /. conc_t in
  let conc_lats = List.concat (Array.to_list results) in
  let conc_p50 = percentile conc_lats 0.50 *. 1000.0 in
  let conc_p95 = percentile conc_lats 0.95 *. 1000.0 in
  Printf.printf
    "warm daemon, %d clients:  %d requests in %.3f s  (%.0f req/s, p50 %.3f ms, p95 %.3f ms)\n"
    n_clients conc_n conc_t conc_rps conc_p50 conc_p95;
  let speedup = oneshot_t /. (seq_t /. float_of_int requests) in
  Printf.printf "per-request speedup over one-shot CLI: %.0fx\n" speedup;
  Server.shutdown srv;
  Server.wait srv;
  let json =
    Printf.sprintf
      "{\n\
      \  \"oneshot_s\": %.6f,\n\
      \  \"distinct_queries\": %d,\n\
      \  \"sequential\": {\n\
      \    \"requests\": %d,\n\
      \    \"elapsed_s\": %.6f,\n\
      \    \"req_per_s\": %.1f,\n\
      \    \"p50_ms\": %.4f,\n\
      \    \"p95_ms\": %.4f\n\
      \  },\n\
      \  \"concurrent\": {\n\
      \    \"clients\": %d,\n\
      \    \"requests\": %d,\n\
      \    \"elapsed_s\": %.6f,\n\
      \    \"req_per_s\": %.1f,\n\
      \    \"p50_ms\": %.4f,\n\
      \    \"p95_ms\": %.4f\n\
      \  },\n\
      \  \"speedup_vs_oneshot\": %.1f\n\
       }\n"
      oneshot_t (Array.length lines) requests seq_t seq_rps seq_p50 seq_p95
      n_clients conc_n conc_t conc_rps conc_p50 conc_p95 speedup
  in
  write_bench ~model_methods:(hier_methods (Apidata.Api.hierarchy ())) "BENCH_server.json" json

(* ------------------------------------------------------------------ *)
(* Domain-parallel engine: CSR snapshots and multicore fan-out         *)
(* ------------------------------------------------------------------ *)

let section_parallel () =
  rule "Domain-parallel engine — multicore fan-out";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host: %d recommended domain(s)%s\n" cores
    (if cores < 4 then " — too few for a 4-domain speedup claim" else "");
  (* A speedup over 4 domains is only reported where 4 domains can run at
     once; below that the ratio measures time-slicing, not parallelism. *)
  let speedup_4v1 t1 t4 =
    if cores < 4 then "null" else Printf.sprintf "%.3f" (t1 /. t4)
  in
  let h = Corpusgen.Workload.layered_api ~classes:2000 in
  let g = Sig_graph.build h in
  let qs = Corpusgen.Workload.random_queries h g ~count:40 ~seed:31 in
  let nq = List.length qs in
  (* Batch fan-out at 1/2/4 domains: a fresh engine per job count so every
     run pays the same cold misses; the reach-index build inside the first
     batch uses the same pool. *)
  let batch_at jobs =
    let engine =
      Query.engine ~pool:(Pool.create ~jobs) ~graph:g ~hierarchy:h ()
    in
    time_of (fun () -> Query.run_batch engine qs)
  in
  let b1_t, b1 = batch_at 1 in
  let b2_t, b2 = batch_at 2 in
  let b4_t, b4 = batch_at 4 in
  let batch_identical = b1 = b2 && b2 = b4 in
  Printf.printf "batch (cold engine, %d queries):\n" nq;
  List.iter
    (fun (jobs, t) ->
      Printf.printf "  jobs=%d: %.4f s  (%.0f queries/s)\n" jobs t
        (float_of_int nq /. t))
    [ (1, b1_t); (2, b2_t); (4, b4_t) ];
  Printf.printf "  4-domain speedup: %s    byte-identical across jobs: %b\n"
    (speedup_4v1 b1_t b4_t) batch_identical;
  (* Mining fan-out over the bundled corpus. *)
  let hierarchy = Apidata.Api.hierarchy () in
  let prog =
    Minijava.Resolve.parse_program ~api:hierarchy Apidata.Api.corpus_sources
  in
  let df = Mining.Dataflow.build prog in
  let mine_at jobs =
    time_of (fun () ->
        let last = ref [] in
        for _ = 1 to 20 do
          last := Mining.Extract.extract ~pool:(Pool.create ~jobs) df
        done;
        !last)
  in
  let m1_t, m1 = mine_at 1 in
  let m4_t, m4 = mine_at 4 in
  let mining_identical = m1 = m4 in
  Printf.printf "mining (%d examples x 20 passes):\n" (List.length m1);
  Printf.printf
    "  jobs=1: %.4f s    jobs=4: %.4f s    speedup %s    identical: %b\n"
    m1_t m4_t (speedup_4v1 m1_t m4_t) mining_identical;
  let json =
    Printf.sprintf
      "{\n\
      \  \"cores\": %d,\n\
      \  \"batch\": {\n\
      \    \"queries\": %d,\n\
      \    \"jobs1_s\": %.6f,\n\
      \    \"jobs2_s\": %.6f,\n\
      \    \"jobs4_s\": %.6f,\n\
      \    \"speedup_4v1\": %s,\n\
      \    \"identical\": %b\n\
      \  },\n\
      \  \"mining\": {\n\
      \    \"jobs1_s\": %.6f,\n\
      \    \"jobs4_s\": %.6f,\n\
      \    \"speedup_4v1\": %s,\n\
      \    \"identical\": %b\n\
      \  }\n\
       }\n"
      cores nq b1_t b2_t b4_t (speedup_4v1 b1_t b4_t) batch_identical m1_t
      m4_t (speedup_4v1 m1_t m4_t) mining_identical
  in
  write_bench ~model_methods:(hier_methods h) "BENCH_parallel.json" json


(* ------------------------------------------------------------------ *)
(* Best-first top-k vs exhaustive enumeration                          *)
(* ------------------------------------------------------------------ *)

(* Words [f ()] allocates straight into the major heap — arrays past the
   256-word minor-heap limit, each bringing the next major GC cycle over
   the whole heap closer — as [major_words - promoted_words]. OCaml 5.1
   publishes a domain's allocation counters only at a collection, so each
   read forces a minor collection first: it stops every domain, parked pool
   workers included, and publishes all their counters. Without it a
   reading lags by whatever was allocated since the last collection. *)
let major_direct_words f =
  let read () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = read () in
  f ();
  read () -. w0

(* The measured pass of the allocation gates: one best-first pass of [qs]
   after a warm-up pass, so the domain's Topk workspace and scratch lanes
   are at their high-water mark, as in a serving process. Returns the
   words per query allocated straight into the major heap and how many
   times the domain's Topk workspace reallocated a table during the
   measured pass. *)
let measured_pass ~settings ~frozen ~hierarchy qs =
  let pass () =
    List.iter (fun q -> ignore (Query.run_info ~settings ~frozen ~hierarchy q)) qs
  in
  pass ();
  let memo = Prospector.Topk.Memo.domain () in
  let g0 = Prospector.Topk.Memo.growths memo in
  let words = major_direct_words pass in
  (words /. float_of_int (List.length qs), Prospector.Topk.Memo.growths memo - g0)

(* The allocation gate: at k = 100 a best-first query may allocate at most
   this many words directly in the major heap. On this world it measures 0
   with the reused Topk workspace, and measured 6228 when the workspace was
   rebuilt per query. *)
let topk_major_words_limit = 1024.

(* The exact workspace gate beside it: the measured k = 100 pass must not
   reallocate any table of the Topk workspace. Unlike the words gate it
   does not read the GC schedule. *)
let topk_growths_limit = 0

(* Minor-heap words one rendered result costs: [Codegen.to_java],
   [Jungloid.to_expression] and [Jungloid.to_string] over every k = 100
   best-first result of [qs], read from [Gc.minor_words] around a second
   rendering pass. Allocation is deterministic, so one pass is exact. *)
let render_words_per_result ~frozen ~hierarchy qs =
  let settings = { Query.default_settings with max_results = 100 } in
  let js =
    List.concat_map
      (fun q ->
        List.map (fun (r : Query.result) -> r.Query.jungloid) (Query.run ~settings ~frozen ~hierarchy q))
      qs
  in
  let render () =
    List.iter
      (fun j ->
        ignore (Prospector.Codegen.to_java j);
        ignore (Prospector.Jungloid.to_expression j);
        ignore (Prospector.Jungloid.to_string j))
      js
  in
  render ();
  let w0 = Gc.minor_words () in
  render ();
  (Gc.minor_words () -. w0) /. float_of_int (max 1 (List.length js))

(* The render-allocation gate: on this world one result's three renderings
   may allocate at most this many minor-heap words. They measure 493 with
   the one-pass buffer renderers and measured 2708 with the [Printf] folds
   those replaced. *)
let topk_render_words_limit = 1000.

(* Methods in the second world [bench topk] times: an [Apigen.mega] world,
   where (node, room) pairs repeat within a query far more than on the
   layered world. *)
let topk_mega_methods = 10_000

type topk_row = {
  k : int;
  ex_t : float;
  ex_c : int;
  bf_t : float;
  bf_c : int;
  alloc : (float * int) option;  (* major words per query, workspace growths *)
  capped : int;  (* queries whose exhaustive run stopped at the path limit *)
  identical : bool;
}

(* Both strategies over [qs] at k = 1, 10 and 100, [passes] times each;
   with [alloc], also the k's measured pass of the allocation gates. The
   strategies agree byte for byte below the path limit: a query whose
   exhaustive run stopped at the limit certifies nothing, so it is counted
   in [capped] and left out of [identical]. *)
let topk_rows ~alloc ~passes ~h ~frozen qs =
  let run_at ~strategy ~k =
    let settings = { Query.default_settings with max_results = k; strategy } in
    time_of (fun () ->
        let last = ref [] in
        for _ = 1 to passes do
          last := List.map (fun q -> Query.run_info ~settings ~frozen ~hierarchy:h q) qs
        done;
        !last)
  in
  List.map
    (fun k ->
      let ex_t, ex = run_at ~strategy:Query.Exhaustive ~k in
      let bf_t, bf = run_at ~strategy:Query.BestFirst ~k in
      let candidates rs =
        List.fold_left (fun acc (_, (i : Query.info)) -> acc + i.Query.candidates) 0 rs
      in
      let alloc =
        if alloc then
          Some
            (measured_pass
               ~settings:{ Query.default_settings with max_results = k }
               ~frozen ~hierarchy:h qs)
        else None
      in
      let row =
        {
          k;
          ex_t;
          ex_c = candidates ex;
          bf_t;
          bf_c = candidates bf;
          alloc;
          capped = List.length (List.filter (fun (_, (i : Query.info)) -> i.Query.truncated) ex);
          identical =
            List.for_all2
              (fun (re, (ie : Query.info)) (rb, _) -> ie.Query.truncated || re = rb)
              ex bf;
        }
      in
      Printf.printf
        "  k=%-4d exhaustive: %.4f s (%6d candidates)   best-first: %.4f s (%6d candidates%s)   \
         speedup %.2fx   identical: %b%s\n"
        k ex_t row.ex_c bf_t row.bf_c
        (match alloc with
        | Some (w, g) ->
            Printf.sprintf ", %.0f words/query direct to the major heap, %d workspace growths" w g
        | None -> "")
        (ex_t /. bf_t) row.identical
        (if row.capped > 0 then Printf.sprintf " (%d capped queries left out)" row.capped else "");
      row)
    [ 1; 10; 100 ]

let topk_row_json r =
  Printf.sprintf
    "{\"k\": %d, \"exhaustive_s\": %.6f, \"exhaustive_candidates\": %d, \"best_first_s\": %.6f, \
     \"best_first_candidates\": %d, %s\"capped_queries\": %d, \"identical\": %b}"
    r.k r.ex_t r.ex_c r.bf_t r.bf_c
    (match r.alloc with
    | Some (w, g) ->
        Printf.sprintf
          "\"best_first_major_words_per_query\": %.1f, \"best_first_memo_growths\": %d, " w g
    | None -> "")
    r.capped r.identical

(* The laziness claim of the BestFirst strategy, measured: identical output
   to the exhaustive oracle at every k, while materializing candidates
   proportional to k instead of the full within-budget path set, and with
   no per-query workspace arrays in the major heap. Two worlds: the layered
   synthetic one, which also carries the allocation figures, and a mega
   world. The `identical` booleans of both and the k = 100 allocation
   figures gate `make check` — a false, a figure over
   [topk_major_words_limit], a workspace growth in the measured k = 100
   pass or a rendering over [topk_render_words_limit] exits nonzero. *)
let section_topk () =
  rule "Best-first top-k vs exhaustive enumeration";
  let passes = 3 in
  let h = Corpusgen.Workload.layered_api ~classes:2000 in
  let g = Sig_graph.build h in
  let frozen = Prospector.Graph.freeze g in
  let qs = Corpusgen.Workload.random_queries h g ~count:40 ~seed:31 in
  let nq = List.length qs in
  Printf.printf "layered synthetic (%d queries x %d passes, frozen CSR, uncached):\n" nq passes;
  let rows = topk_rows ~alloc:true ~passes ~h ~frozen qs in
  let mh = Corpusgen.Workload.mega_api ~methods:topk_mega_methods in
  let mg = Sig_graph.build mh in
  let mfrozen = Prospector.Graph.freeze mg in
  let mqs = Corpusgen.Workload.random_queries mh mg ~count:40 ~seed:31 in
  Printf.printf "mega world, %d methods (%d queries x %d passes):\n" topk_mega_methods
    (List.length mqs) passes;
  let mrows = topk_rows ~alloc:false ~passes ~h:mh ~frozen:mfrozen mqs in
  let all_identical = List.for_all (fun r -> r.identical) (rows @ mrows) in
  Printf.printf "  all identical: %b\n" all_identical;
  let k100 = List.find (fun r -> r.k = 100) rows in
  let words100, growths100 = Option.get k100.alloc in
  let render_words = render_words_per_result ~frozen ~hierarchy:h qs in
  Printf.printf "  rendering a k=100 result: %.0f minor-heap words (limit %.0f)\n"
    render_words topk_render_words_limit;
  let json =
    Printf.sprintf
      "{\n  \"queries\": %d,\n  \"passes\": %d,\n  \"rows\": [\n%s\n  ],\n  \"mega\": {\n    \"methods\": %d,\n    \"queries\": %d,\n    \"rows\": [\n%s\n    ]\n  },\n  \"render_minor_words_per_result\": %.1f,\n  \"identical\": %b\n}\n"
      nq passes
      (String.concat ",\n" (List.map (fun r -> "    " ^ topk_row_json r) rows))
      topk_mega_methods (List.length mqs)
      (String.concat ",\n" (List.map (fun r -> "      " ^ topk_row_json r) mrows))
      render_words all_identical
  in
  write_bench ~model_methods:(hier_methods h) "BENCH_topk.json" json;
  if not all_identical then begin
    prerr_endline
      "error: best-first results diverged from the exhaustive oracle";
    exit 1
  end;
  if words100 > topk_major_words_limit then begin
    Printf.eprintf
      "error: a best-first query at k=100 allocated more than %.0f words \
       directly in the major heap\n"
      topk_major_words_limit;
    exit 1
  end;
  if growths100 > topk_growths_limit then begin
    Printf.eprintf
      "error: the Topk workspace reallocated %d times in the measured k=100 pass, \
       after a warm-up pass over the same queries (limit %d)\n"
      growths100 topk_growths_limit;
    exit 1
  end;
  if render_words > topk_render_words_limit then begin
    Printf.eprintf
      "error: rendering one k=100 result allocated %.0f minor-heap words, over the %.0f limit\n"
      render_words topk_render_words_limit;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Refine sessions — questions to convergence and probe latency        *)
(* ------------------------------------------------------------------ *)

(* Every Table 1 problem gets one refine session driven by the simulated
   programmer (desired = the rank-1 result), measuring how many probes it
   takes to converge and how long each probe selection costs — probe
   selection runs inside Session.start and Session.answer, so those two
   calls are the latency samples. The gate: refine must never change the
   answer (to_rank1 on every session) and must stay close to a binary
   search, at most ceil(log2 k) + 2 questions. The same loop runs on a
   layered synthetic world to keep the latency numbers honest beyond the
   bundled model's size. *)

module Esession = Prospector_eval.Session

let section_refine () =
  rule "Refine sessions — questions to convergence and probe latency";
  let probe_samples = ref [] in
  (* One full session; returns (k, questions, to_rank1, live_at_end). *)
  let run_session (results : Query.result list) =
    match results with
    | [] -> None
    | desired :: _ ->
        let candidates =
          List.map (fun result -> { Esession.source = None; result }) results
        in
        let timed f =
          let t0 = now () in
          let r = f () in
          probe_samples := (now () -. t0) :: !probe_samples;
          r
        in
        let rec loop sess =
          match Simstudy.Programmer.answer_probe sess ~desired with
          | None -> sess
          | Some choice -> (
              match timed (fun () -> Esession.answer sess ~choice) with
              | Ok sess' -> loop sess'
              | Error _ -> sess)
        in
        let final = loop (timed (fun () -> Esession.start candidates)) in
        Some
          ( List.length candidates,
            Esession.questions_asked final,
            Simstudy.Programmer.same_result
              (Esession.best final).Esession.result desired,
            List.length (Esession.live final) )
  in
  let question_bound k =
    int_of_float (ceil (log (float_of_int (max 1 k)) /. log 2.0)) + 2
  in
  (* -- Table 1 ------------------------------------------------------ *)
  let frozen = Query.freeze (Apidata.Api.default_graph ()) in
  let hierarchy = Apidata.Api.hierarchy () in
  let failed = ref false in
  let table1_rows =
    List.filter_map
      (fun (p : Problems.t) ->
        let results =
          Query.run ~frozen ~hierarchy (Query.query p.Problems.tin p.Problems.tout)
        in
        match run_session results with
        | None -> None
        | Some (k, questions, to_rank1, live) ->
            let bound = question_bound k in
            let ok = to_rank1 && questions <= bound in
            if not ok then failed := true;
            Printf.printf
              "  #%-2d k=%-3d questions=%d (bound %d)  live at end=%d  \
               survivor is rank-1: %b%s\n"
              p.Problems.id k questions bound live to_rank1
              (if ok then "" else "   FAIL");
            Some (p.Problems.id, k, questions, bound, to_rank1, live))
      Problems.all
  in
  (* -- layered synthetic world -------------------------------------- *)
  let h = Corpusgen.Workload.layered_api ~classes:500 in
  let g = Sig_graph.build h in
  let qs = Corpusgen.Workload.random_queries h g ~count:20 ~seed:7 in
  let frozen = Query.freeze g in
  let layered =
    List.filter_map
      (fun q -> run_session (Query.run ~frozen ~hierarchy:h q))
      qs
  in
  let layered_sessions = List.length layered in
  let layered_max_q =
    List.fold_left (fun acc (_, q, _, _) -> max acc q) 0 layered
  in
  let layered_mean_q =
    if layered = [] then 0.0
    else
      float_of_int (List.fold_left (fun acc (_, q, _, _) -> acc + q) 0 layered)
      /. float_of_int layered_sessions
  in
  Printf.printf
    "  layered (%d classes): %d/%d queries gave results; questions max=%d \
     mean=%.2f\n"
    500 layered_sessions (List.length qs) layered_max_q layered_mean_q;
  (* -- probe latency ------------------------------------------------- *)
  let samples = List.sort compare !probe_samples in
  let n = List.length samples in
  let pct p =
    if n = 0 then 0.0
    else List.nth samples (min (n - 1) (int_of_float (float_of_int n *. p)))
  in
  let ms s = s *. 1000.0 in
  Printf.printf
    "  probe selection: %d samples, p50 %.3f ms, p95 %.3f ms, max %.3f ms\n" n
    (ms (pct 0.50)) (ms (pct 0.95))
    (ms (match List.rev samples with [] -> 0.0 | x :: _ -> x));
  let json =
    Printf.sprintf
      "{\n\
      \  \"table1\": [\n%s\n  ],\n\
      \  \"layered\": {\"classes\": %d, \"queries\": %d, \"sessions\": %d, \
       \"max_questions\": %d, \"mean_questions\": %.3f},\n\
      \  \"probe_latency_ms\": {\"samples\": %d, \"p50\": %.4f, \"p95\": \
       %.4f},\n\
      \  \"ok\": %b\n\
       }\n"
      (String.concat ",\n"
         (List.map
            (fun (id, k, questions, bound, to_rank1, live) ->
              Printf.sprintf
                "    {\"id\": %d, \"k\": %d, \"questions\": %d, \"bound\": \
                 %d, \"to_rank1\": %b, \"live_at_end\": %d}"
                id k questions bound to_rank1 live)
            table1_rows))
      500 (List.length qs) layered_sessions layered_max_q layered_mean_q n
      (ms (pct 0.50)) (ms (pct 0.95))
      (not !failed)
  in
  write_bench ~model_methods:(hier_methods hierarchy) "BENCH_refine.json" json;
  if !failed then begin
    prerr_endline
      "error: a refine session changed the answer or overran ceil(log2 k) + \
       2 questions";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The paper-ranking baseline                                          *)
(* ------------------------------------------------------------------ *)

(* Mean reciprocal rank of the desired solution under the paper's rank key
   (Section 3.2) on the three workloads with known answers: the Table 1
   problems, the extended problems (each under its own settings) and a
   Truthgen ground-truth world. These are the figures a ranking model must
   beat on a workload of its own. Every list is answered twice, best-first
   and exhaustively; any divergence exits nonzero, so this is the
   known-answer counterpart of the `topk` equivalence gate inside
   `make check`. *)
let section_rank () =
  rule "Paper-ranking baseline";
  let identical = ref true in
  let reciprocal = function Some r -> 1.0 /. float_of_int r | None -> 0.0 in
  let mrr ranks =
    List.fold_left (fun a r -> a +. reciprocal r) 0.0 ranks
    /. float_of_int (max 1 (List.length ranks))
  in
  let rank_of is_desired results =
    let rec go n = function
      | [] -> None
      | r :: rest -> if is_desired r then Some n else go (n + 1) rest
    in
    go 1 results
  in
  (* One query under [settings], best-first and exhaustive; the best-first
     list is the answer. *)
  let both ~settings ~frozen ~hierarchy q =
    let run settings = Query.run ~settings ~frozen ~hierarchy q in
    let bf = run settings in
    let ex = run { settings with Query.strategy = Query.Exhaustive } in
    let codes = List.map (fun (r : Query.result) -> r.Query.code) in
    if codes bf <> codes ex then identical := false;
    bf
  in
  let cell = function Some r -> string_of_int r | None -> "null" in
  (* -- Table 1 and the extended problems, on the bundled model -------- *)
  let hierarchy = Apidata.Api.hierarchy () in
  let frozen = Query.freeze (Apidata.Api.default_graph ()) in
  let t1 =
    List.map
      (fun (p : Problems.t) ->
        let rs =
          both ~settings:Query.default_settings ~frozen ~hierarchy
            (Query.query p.Problems.tin p.Problems.tout)
        in
        (p.Problems.id, rank_of p.Problems.is_desired rs))
      Problems.all
  in
  let t1_mrr = mrr (List.map snd t1) in
  Printf.printf "table 1: MRR %.4f (%d rows)\n" t1_mrr (List.length t1);
  let ext =
    List.map
      (fun (p : Apidata.Extended.t) ->
        let rs =
          both ~settings:p.Apidata.Extended.settings ~frozen ~hierarchy
            (Query.query p.Apidata.Extended.tin p.Apidata.Extended.tout)
        in
        (p.Apidata.Extended.id, rank_of p.Apidata.Extended.is_desired rs,
         p.Apidata.Extended.max_rank))
      Apidata.Extended.all
  in
  let ext_mrr = mrr (List.map (fun (_, r, _) -> r) ext) in
  let within =
    List.length
      (List.filter
         (fun (_, r, bound) -> match r with Some r -> r <= bound | None -> false)
         ext)
  in
  Printf.printf "extended: MRR %.4f (%d of %d within their bound)\n" ext_mrr within
    (List.length ext);
  (* -- Truthgen ------------------------------------------------------ *)
  let t =
    Corpusgen.Truthgen.generate
      {
        Corpusgen.Truthgen.default_params with
        producers = 12;
        coverage = 0.75;
        seed = 13;
      }
  in
  let prog =
    Minijava.Resolve.parse_program ~api:t.Corpusgen.Truthgen.hierarchy
      t.Corpusgen.Truthgen.corpus
  in
  let tg = Sig_graph.build t.Corpusgen.Truthgen.hierarchy in
  ignore (Mining.Enrich.enrich tg prog);
  let tg_frozen = Query.freeze tg in
  let t_settings = { Query.default_settings with slack = 2 } in
  (* the ground-truth answer: reach producer i's lookup and downcast its
     Object result to the actual model class *)
  let is_known i (r : Query.result) =
    let elems = r.Query.jungloid.Prospector.Jungloid.elems in
    List.exists
      (function
        | Prospector.Elem.Instance_call { meth; _ } ->
            String.equal meth.Javamodel.Member.mname (Printf.sprintf "lookup%d" i)
        | _ -> false)
      elems
    && List.exists
         (function
           | Prospector.Elem.Downcast { to_; _ } ->
               String.equal (Javamodel.Jtype.to_string to_) (Corpusgen.Truthgen.model i)
           | _ -> false)
         elems
  in
  let covered =
    List.filter
      (fun i -> t.Corpusgen.Truthgen.covered.(i))
      (List.init t.Corpusgen.Truthgen.params.Corpusgen.Truthgen.producers (fun i -> i))
  in
  let tg_ranks =
    List.map
      (fun i ->
        rank_of (is_known i)
          (both ~settings:t_settings ~frozen:tg_frozen
             ~hierarchy:t.Corpusgen.Truthgen.hierarchy
             (Query.query Corpusgen.Truthgen.registry (Corpusgen.Truthgen.model i))))
      covered
  in
  let tg_mrr = mrr tg_ranks in
  Printf.printf "truthgen: MRR of known answer %.4f (%d covered producers)\n" tg_mrr
    (List.length covered);
  Printf.printf "  best-first identical to exhaustive: %b\n" !identical;
  let json =
    Printf.sprintf
      "{\n\
      \  \"table1\": {\n\
      \    \"mrr\": %.6f,\n\
      \    \"rows\": [\n%s\n    ]\n\
      \  },\n\
      \  \"extended\": {\n\
      \    \"mrr\": %.6f,\n\
      \    \"within_bound\": %d,\n\
      \    \"rows\": [\n%s\n    ]\n\
      \  },\n\
      \  \"truthgen\": {\n\
      \    \"mrr\": %.6f,\n\
      \    \"covered_producers\": %d\n\
      \  },\n\
      \  \"identical\": %b\n\
       }\n"
      t1_mrr
      (String.concat ",\n"
         (List.map
            (fun (id, r) ->
              Printf.sprintf "      {\"problem\": %d, \"rank\": %s}" id (cell r))
            t1))
      ext_mrr within
      (String.concat ",\n"
         (List.map
            (fun (id, r, bound) ->
              Printf.sprintf "      {\"problem\": %d, \"rank\": %s, \"bound\": %d}" id
                (cell r) bound)
            ext))
      tg_mrr (List.length covered) !identical
  in
  write_bench ~model_methods:(hier_methods hierarchy) "BENCH_rank.json" json;
  if not !identical then begin
    prerr_endline "error: best-first results diverged from the exhaustive oracle";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Mined typestate protocols                                           *)
(* ------------------------------------------------------------------ *)

(* Mining cost, lint throughput over the bundled corpus, and one gate:
   every solution of the Table 1 and extended problems (each row under its
   own settings) must vet clean against the bundled model. The mined call
   order must never flag the answers the evaluation holds correct. *)
let section_proto () =
  rule "Mined typestate protocols";
  let prog = Apidata.Api.program () in
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  (* -- mining ------------------------------------------------------- *)
  let mine_t, model =
    time_of (fun () ->
        let m = ref Analysis.Protocol.empty in
        for _ = 1 to 10 do
          m := Mining.Protomine.mine prog
        done;
        !m)
  in
  let mine_t = mine_t /. 10.0 in
  Printf.printf
    "mining: %.4f s/corpus (%d types, %d sequences, %d transitions)\n" mine_t
    (List.length (Analysis.Protocol.modeled_types model))
    (Analysis.Protocol.sequence_count model)
    (Analysis.Protocol.transition_count model);
  (* -- lint throughput ---------------------------------------------- *)
  let df = Mining.Dataflow.build prog in
  let seqs = Mining.Protomine.sequences df in
  let lint_passes = 100 in
  let lint_t, findings =
    time_of (fun () ->
        let last = ref [] in
        for _ = 1 to lint_passes do
          last := Analysis.Protolint.check model seqs
        done;
        !last)
  in
  let seqs_per_s =
    float_of_int (lint_passes * List.length seqs) /. lint_t
  in
  Printf.printf
    "lint: %d sequences x %d passes in %.4f s (%.0f sequences/s, %d findings \
     on the corpus itself)\n"
    (List.length seqs) lint_passes lint_t seqs_per_s
    (List.length findings);
  (* -- evaluation solutions must vet clean -------------------------- *)
  let frozen = Query.freeze graph in
  let queries =
    List.map
      (fun (p : Problems.t) -> (Query.default_settings, p.Problems.tin, p.Problems.tout))
      Problems.all
    @ List.map
        (fun (p : Apidata.Extended.t) ->
          (p.Apidata.Extended.settings, p.Apidata.Extended.tin, p.Apidata.Extended.tout))
        Apidata.Extended.all
  in
  let chains =
    List.concat_map
      (fun (settings, tin, tout) ->
        List.map
          (fun (r : Query.result) -> r.Query.jungloid)
          (Query.run ~settings ~frozen ~hierarchy (Query.query tin tout)))
      queries
  in
  let flagged = List.concat_map (Analysis.Protolint.vet model) chains in
  Printf.printf
    "protocol findings on %d solutions of %d Table 1 and extended queries: %d\n"
    (List.length chains) (List.length queries) (List.length flagged);
  let json =
    Printf.sprintf
      "{\n\
      \  \"mine_s\": %.6f,\n\
      \  \"modeled_types\": %d,\n\
      \  \"sequences\": %d,\n\
      \  \"transitions\": %d,\n\
      \  \"lint_sequences_per_s\": %.1f,\n\
      \  \"corpus_findings\": %d,\n\
      \  \"vetted_queries\": %d,\n\
      \  \"vetted_chains\": %d,\n\
      \  \"flagged\": %d\n\
       }\n"
      mine_t
      (List.length (Analysis.Protocol.modeled_types model))
      (Analysis.Protocol.sequence_count model)
      (Analysis.Protocol.transition_count model)
      seqs_per_s
      (List.length findings)
      (List.length queries) (List.length chains) (List.length flagged)
  in
  write_bench ~model_methods:(hier_methods hierarchy) "BENCH_proto.json" json;
  if flagged <> [] then begin
    List.iter
      (fun d -> prerr_endline (Analysis.Diagnostic.to_string d))
      flagged;
    prerr_endline
      "error: the mined protocol model flagged a Table 1 or extended solution";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let section_micro () =
  rule "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let hierarchy = Apidata.Api.hierarchy () in
  let graph = Apidata.Api.default_graph () in
  let prog = Apidata.Api.program () in
  let df = Mining.Dataflow.build prog in
  let examples = Mining.Extract.extract df in
  let parse_q =
    Query.query "org.eclipse.core.resources.IFile" "org.eclipse.jdt.core.dom.ASTNode"
  in
  let frozen = Query.freeze graph in
  let tests =
    [
      Test.make ~name:"load_api_model"
        (Staged.stage (fun () -> ignore (Japi.Loader.load_files Apidata.Api.api_sources)));
      Test.make ~name:"build_signature_graph"
        (Staged.stage (fun () -> ignore (Sig_graph.build hierarchy)));
      Test.make ~name:"query_table1_row1"
        (Staged.stage (fun () ->
             ignore
               (Query.run ~frozen ~hierarchy
                  (Query.query "java.io.InputStream" "java.io.BufferedReader"))));
      Test.make ~name:"query_parsing_example"
        (Staged.stage (fun () -> ignore (Query.run ~frozen ~hierarchy parse_q)));
      Test.make ~name:"assist_multi_source"
        (Staged.stage (fun () ->
             ignore
               (Query.run_multi ~frozen ~hierarchy
                  ~vars:
                    [
                      ("ep", Javamodel.Jtype.ref_of_string "org.eclipse.ui.IEditorPart");
                      ( "page",
                        Javamodel.Jtype.ref_of_string "org.eclipse.ui.IWorkbenchPage" );
                    ]
                  ~tout:
                    (Javamodel.Jtype.ref_of_string
                       "org.eclipse.ui.texteditor.IDocumentProvider")
                  ())));
      Test.make ~name:"mine_corpus"
        (Staged.stage (fun () -> ignore (Mining.Extract.extract df)));
      Test.make ~name:"generalize_examples"
        (Staged.stage (fun () -> ignore (Mining.Generalize.run examples)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let test = Test.make_grouped ~name:"prospector" tests in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] ->
          if ns > 1_000_000.0 then Printf.printf "%-40s %10.3f ms/run\n" name (ns /. 1e6)
          else Printf.printf "%-40s %10.1f ns/run\n" name ns
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Million-method scale: mega worlds, search kernels, batches         *)
(* ------------------------------------------------------------------ *)

(* The parked-pool gate: words one [run_batch] query allocates straight
   into the major heap at jobs = 2, over [pool_calls] calls of
   [pool_call_size] distinct solvable pairs after one warm-up call of as
   many. Every pair of the run is distinct, so the engine's 256-entry cache
   never answers one, as in a long-running batch process. A worker domain
   that outlived its call kept its Topk workspace at the high-water mark;
   one spawned per call grew it again, straight into the major heap.
   Before measuring, each of the two domains answers every measured pair
   once on the whole snapshot, so both workspaces already hold the largest
   query of the run: which domain answers which query depends on
   scheduling, and a workspace reaching a new high-water mark inside the
   measured calls read 655–1,402 words per query in 7 of 30 runs without it
   (−14 to 2 in 29 of 29 with it; 2 vCPUs). The gate runs on the 100k world only, the one perfbench's
   `batch-100k` queries: on the 10k world the workspaces still reach new
   high-water marks within these calls (~200 words per query even at
   jobs = 1, 300–580 at jobs = 2), which says nothing about the pool. *)
let pool_gate_methods = 100_000

let pool_calls = 4

let pool_call_size = 256

let pool_major_words_limit = 1024.

let pool_major_words_per_query ~reach ~frozen ~hierarchy qs =
  let qs = Array.of_list qs in
  let call c =
    Array.to_list (Array.sub qs (c * pool_call_size) pool_call_size)
  in
  let engine =
    Query.engine_of_frozen ~pool:(Pool.create ~jobs:2) ~reach ~frozen
      ~hierarchy ()
  in
  ignore (Query.run_batch engine (call 0));
  let measured = List.concat_map call (List.init pool_calls succ) in
  ignore
    (Pool.map_list (Pool.create ~jobs:2)
       (fun () ->
         List.iter
           (fun q -> ignore (Query.run ~reach ~frozen ~hierarchy q))
           measured)
       [ (); () ]);
  major_direct_words (fun () ->
      for c = 1 to pool_calls do
        ignore (Query.run_batch engine (call c))
      done)
  /. float_of_int (pool_calls * pool_call_size)

(* The builder's words per edge (see [graph_words]), gated on worlds up to
   100k methods: [Obj.reachable_words] needs a visited table as large as
   the heap it walks, too much at a million methods. *)
let builder_gate_methods = 100_000

let builder_words_limit = 20.

let builder_words_per_edge g h =
  float_of_int (graph_words g h) /. float_of_int (Prospector.Graph.edge_count g)

(* The [.japi] front end on the same world, where start-up pays for it: the
   world printed with [Japi.Printer.print_files] and loaded [japi_loads]
   times (median and quartile spread), and the words the loaded hierarchy
   keeps per method. The words are an exact count, gated on the worlds the
   builder gate covers: 19.35 on the 100k world, where each resolved name
   is one shared [Qname.t] and [Jtype.Ref] and the lexer interns
   identifiers; 45.11 while every mention of a name built its own. The
   limit is tight enough to fail a loader that shares [Qname]s but builds a
   [Ref] per mention (21.66), or copies each member name (21.35). *)
let japi_loads = 5

let hierarchy_words_limit = 21.

let japi_row h =
  let files = Japi.Printer.print_files h in
  let times = ref [] and loaded = ref h in
  for _ = 1 to japi_loads do
    let t, h' = time_of (fun () -> Japi.Loader.load_files files) in
    times := t :: !times;
    loaded := h'
  done;
  let words =
    float_of_int (Obj.reachable_words (Obj.repr !loaded))
    /. float_of_int (hier_methods !loaded)
  in
  (median !times, percentile !times 0.75 -. percentile !times 0.25, words)

(* [count] solvable (tin, tout) pairs drawn with [seed], each probed in O(1)
   against the reach index — the rejection sampling in
   [Workload.random_queries] pays a full search per probe, which does not
   survive contact with a million-method graph. With [distinct] no pair
   repeats. *)
let sample_solvable ?(distinct = false) ~seed ~count g reach =
  let rng = Corpusgen.Rng.create ~seed in
  let real =
    Array.of_list
      (List.filter_map
         (fun (ty, node) ->
           match ty with Javamodel.Jtype.Ref _ -> Some (ty, node) | _ -> None)
         (Prospector.Graph.real_nodes g))
  in
  let n = Array.length real in
  let seen = Hashtbl.create count in
  let acc = ref [] and got = ref 0 and tries = ref 0 in
  while !got < count && !tries < 100 * count + 200_000 do
    incr tries;
    let ti, si = real.(Corpusgen.Rng.int rng n) in
    let to_, di = real.(Corpusgen.Rng.int rng n) in
    if
      si <> di
      && (not (distinct && Hashtbl.mem seen (si, di)))
      && Prospector.Reach.mem reach ~src:si ~target:di
    then begin
      Hashtbl.replace seen (si, di) ();
      acc := ({ Query.tin = ti; tout = to_ }, (si, di)) :: !acc;
      incr got
    end
  done;
  List.rev !acc

(* Gates `make check` at reduced sizes (10k/100k): a batch that differs
   from one query at a time, the parked-pool gate above (100k row), the
   builder's words per edge or the loaded hierarchy's words per method over
   its limit exits nonzero. The full million-method row is opt-in:

     BENCH_SCALE_SIZES=10000,100000,1000000 dune exec bench/main.exe -- scale

   Above the 100k row only the identity check gates. *)
let section_scale () =
  rule "Million-method scale — mega worlds, search kernels, batches";
  let sizes =
    match Sys.getenv_opt "BENCH_SCALE_SIZES" with
    | None -> [ 10_000; 100_000 ]
    | Some s ->
        List.filter_map int_of_string_opt
          (String.split_on_char ',' (String.trim s))
  in
  let failed = ref false in
  let measure methods =
    Printf.printf "\n%d methods:\n%!" methods;
    let gen_t, h = time_of (fun () -> Corpusgen.Workload.mega_api ~methods) in
    let build_t, g = time_of (fun () -> Sig_graph.build h) in
    let freeze_t, frozen = time_of (fun () -> Prospector.Graph.freeze g) in
    let nodes = frozen.Prospector.Graph.f_nodes
    and edges = frozen.Prospector.Graph.f_edges in
    Printf.printf
      "  world: %d nodes, %d edges (gen %.2f s, build %.2f s, freeze %.3f s)\n\
       %!"
      nodes edges gen_t build_t freeze_t;
    let builder_words =
      if methods <= builder_gate_methods then Some (builder_words_per_edge g h)
      else None
    in
    Option.iter
      (fun w ->
        Printf.printf "  builder: %.2f words per edge beyond the hierarchy (limit %.0f)\n%!"
          w builder_words_limit;
        if w > builder_words_limit then begin
          Printf.eprintf
            "error: the graph builder keeps %.2f words per edge, over the %.0f limit\n"
            w builder_words_limit;
          failed := true
        end)
      builder_words;
    let japi =
      if methods <= builder_gate_methods then Some (japi_row h) else None
    in
    Option.iter
      (fun (load_t, load_iqr, words) ->
        Printf.printf
          "  .japi: load %.3f s (median of %d, IQR %.3f s); hierarchy %.2f words \
           per method (limit %.0f)\n\
           %!"
          load_t japi_loads load_iqr words hierarchy_words_limit;
        if words > hierarchy_words_limit then begin
          Printf.eprintf
            "error: the loaded hierarchy keeps %.2f words per method, over the %.0f \
             limit\n"
            words hierarchy_words_limit;
          failed := true
        end)
      japi;
    let reach_t, reach =
      time_of (fun () -> Prospector.Reach.build_frozen frozen)
    in
    let qs = sample_solvable ~seed:31 ~count:20 g reach in
    let pairs = List.map snd qs in
    let qs = List.map fst qs in
    let nq = List.length qs in
    Printf.printf "  reach index: %.2f s; %d solvable queries sampled\n%!"
      reach_t nq;
    (* The per-query search kernels (backward 0-1 BFS to the target, forward
       BFS from the source), repeated until the measurement is search-bound.
       End-to-end latency is enumeration-bound, so it is reported separately
       below. *)
    let module S = Prospector.Search in
    let passes = max 2 (4_000_000 / ((edges * nq) + 1)) in
    let scratch = S.Scratch.create () in
    let kern_t, _ =
      time_of (fun () ->
          for _ = 1 to passes do
            List.iter
              (fun (si, di) ->
                S.Scratch.with_frame scratch (fun () ->
                    ignore (S.Csr.distances_to ~scratch frozen ~target:di
                        : S.Dist.t);
                    ignore
                      (S.Csr.distances_from ~scratch frozen ~sources:[ si ]
                        : S.Dist.t)))
              pairs
          done)
    in
    Printf.printf "  search kernels (%d passes): %.3f s\n%!" passes kern_t;
    let query_t, query_rs =
      time_of (fun () -> List.map (fun q -> Query.run ~frozen ~hierarchy:h q) qs)
    in
    Printf.printf "  end-to-end: %.3f s\n%!" query_t;
    (* The batch fan-out over two jobs vs the sequential one-query-at-a-time
       answers, byte for byte. *)
    let engine =
      Query.engine_of_frozen ~pool:(Pool.create ~jobs:2) ~reach ~frozen
        ~hierarchy:h ()
    in
    let batch_t, batch = time_of (fun () -> Query.run_batch engine qs) in
    let batch_identical = batch = List.combine qs query_rs in
    let qps = float_of_int nq /. batch_t in
    Printf.printf
      "  batch (jobs=2): %.3f s (%.0f queries/s), identical to oracle %b\n%!"
      batch_t qps batch_identical;
    if not batch_identical then failed := true;
    let pool_words =
      if methods = pool_gate_methods then
        Some
          (pool_major_words_per_query ~reach ~frozen ~hierarchy:h
             (List.map fst
                (sample_solvable ~distinct:true ~seed:47
                   ~count:((pool_calls + 1) * pool_call_size)
                   g reach)))
      else None
    in
    Option.iter
      (fun w ->
        Printf.printf
          "  run_batch at jobs=2, %d calls of %d distinct queries after a \
           warm-up call: %.0f words/query direct to the major heap (limit \
           %.0f)\n\
           %!"
          pool_calls pool_call_size w pool_major_words_limit;
        if w > pool_major_words_limit then begin
          Printf.eprintf
            "error: run_batch at jobs=2 allocated %.0f words per query \
             directly in the major heap, over the %.0f limit\n"
            w pool_major_words_limit;
          failed := true
        end)
      pool_words;
    Printf.sprintf
      "    {\n\
      \      \"methods\": %d,\n\
      \      \"nodes\": %d,\n\
      \      \"edges\": %d,\n\
      \      \"gen_s\": %.3f,\n\
      \      \"build_s\": %.3f,\n\
      \      \"builder_words_per_edge\": %s,\n\
      \      \"japi_load_s\": %s,\n\
      \      \"japi_load_iqr_s\": %s,\n\
      \      \"hierarchy_words_per_method\": %s,\n\
      \      \"freeze_s\": %.4f,\n\
      \      \"reach_s\": %.3f,\n\
      \      \"queries\": %d,\n\
      \      \"kernel_passes\": %d,\n\
      \      \"kernel_s\": %.4f,\n\
      \      \"query_s\": %.4f,\n\
      \      \"batch_s\": %.4f,\n\
      \      \"queries_per_s\": %.1f,\n\
      \      \"batch_identical\": %b,\n\
      \      \"pool_major_words_per_query\": %s\n\
      \    }"
      methods nodes edges gen_t build_t
      (match builder_words with Some w -> Printf.sprintf "%.2f" w | None -> "null")
      (match japi with Some (t, _, _) -> Printf.sprintf "%.4f" t | None -> "null")
      (match japi with Some (_, iqr, _) -> Printf.sprintf "%.4f" iqr | None -> "null")
      (match japi with Some (_, _, w) -> Printf.sprintf "%.2f" w | None -> "null")
      freeze_t reach_t nq passes kern_t
      query_t batch_t qps batch_identical
      (match pool_words with Some w -> Printf.sprintf "%.1f" w | None -> "null")
  in
  let rows = List.map measure sizes in
  let json =
    Printf.sprintf "{\n  \"sizes\": [\n%s\n  ]\n}\n" (String.concat ",\n" rows)
  in
  write_bench ~model_methods:(List.fold_left max 0 sizes) "BENCH_scale.json"
    json;
  if !failed then begin
    prerr_endline
      "error: scale gate failed (a batch differs from one query at a time, \
       the pool's major-heap words, the builder's words per edge or the \
       loaded hierarchy's words per method over the limit)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Live reload: delta patches vs full rebuilds under query traffic     *)
(* ------------------------------------------------------------------ *)

let section_reload () =
  rule "Live reload — delta-patched snapshots under sustained query traffic";
  let module Delta = Prospector.Delta in
  let module Graph = Prospector.Graph in
  let module Reach = Prospector.Reach in
  let sizes =
    match Sys.getenv_opt "BENCH_RELOAD_SIZES" with
    | None -> [ 10_000; 100_000 ]
    | Some s ->
        List.filter_map int_of_string_opt
          (String.split_on_char ',' (String.trim s))
  in
  let failed = ref false in
  let patch_times = ref [] in
  let measure methods =
    Printf.printf "\n%d methods:\n%!" methods;
    let h = Corpusgen.Workload.mega_api ~methods in
    let g = Sig_graph.build h in
    let frozen = Graph.freeze g in
    let nodes = frozen.Graph.f_nodes and edges = frozen.Graph.f_edges in
    let reach = Reach.build_frozen frozen in
    (* Solvable pairs sampled through the reach index, as in the scale
       section — rejection sampling with a full search per probe does not
       survive contact with graphs this size. *)
    let sampled =
      let rng = Corpusgen.Rng.create ~seed:47 in
      let real =
        Array.of_list
          (List.filter_map
             (fun (ty, node) ->
               match ty with
               | Javamodel.Jtype.Ref _ -> Some (ty, node)
               | _ -> None)
             (Graph.real_nodes g))
      in
      let n = Array.length real in
      let acc = ref [] and got = ref 0 and tries = ref 0 in
      while !got < 12 && !tries < 200_000 do
        incr tries;
        let ti, si = real.(Corpusgen.Rng.int rng n) in
        let to_, di = real.(Corpusgen.Rng.int rng n) in
        if si <> di && Reach.mem reach ~src:si ~target:di then begin
          acc := ({ Query.tin = ti; tout = to_ }, (si, di)) :: !acc;
          incr got
        end
      done;
      List.rev !acc
    in
    let qs = List.map fst sampled and pairs = List.map snd sampled in
    let editable =
      Array.of_list
        (List.filter
           (fun (d : Javamodel.Decl.t) ->
             (not d.Javamodel.Decl.synthetic)
             && Javamodel.Qname.to_string d.Javamodel.Decl.dname
                <> "java.lang.Object")
           (Javamodel.Hierarchy.decls h))
    in
    (* A body-only class edit with already-interned types — the spliceable
       live-edit shape; [k] keeps successive churn edits distinct. *)
    let body_edit k hcur =
      let d0 = editable.(k mod Array.length editable) in
      let d = Javamodel.Hierarchy.find hcur d0.Javamodel.Decl.dname in
      let m =
        Javamodel.Member.meth
          (Printf.sprintf "zzChurn%d" k)
          ~params:[]
          ~ret:(Javamodel.Jtype.Ref d.Javamodel.Decl.dname)
      in
      Delta.Replace_class
        { d with Javamodel.Decl.methods = m :: d.Javamodel.Decl.methods }
    in
    (* The stall a restartless server avoids: cold rebuild to serving state. *)
    let rebuild_s, _ =
      time_of (fun () ->
          let fz = Graph.freeze (Sig_graph.build h) in
          ignore (Reach.build_frozen fz : Reach.t))
    in
    (* Let the rebuild's garbage get collected before timing the patch —
       otherwise the major GC charges the dead rebuild heap to whatever
       allocates next, which is the patch chain below. *)
    Gc.full_major ();
    (* Single-class delta: patch + incremental reach, against the oracle.
       Timed over a short chain of edits — each patched snapshot carries
       fresh tail slack and an unclaimed tail token, so every apply takes
       the append path, as sustained churn does — and the best sample is
       the gate figure (a single sample is at the mercy of a GC major
       slice). The first patch of the chain feeds the oracle below. *)
    let patch_s, patch =
      let best = ref infinity in
      let first = ref None in
      let hcur = ref h and fzcur = ref frozen in
      for k = 0 to 4 do
        let t, p =
          time_of (fun () ->
              match Delta.apply ~hierarchy:!hcur ~frozen:!fzcur [ body_edit k !hcur ] with
              | Ok p -> p
              | Error _ -> failwith "bench delta rejected")
        in
        if !first = None then first := Some p;
        if t < !best then best := t;
        hcur := p.Delta.p_hierarchy;
        fzcur := p.Delta.p_frozen
      done;
      (!best, Option.get !first)
    in
    let reach_patch_s, patched_reach =
      time_of (fun () ->
          Reach.patch ~old:reach ~sources:patch.Delta.p_sources
            patch.Delta.p_frozen)
    in
    let spliced = patch.Delta.p_mode = Delta.Spliced in
    let frozen_identical =
      Delta.frozen_equal patch.Delta.p_frozen
        (Graph.freeze (Sig_graph.build patch.Delta.p_hierarchy))
    in
    let fresh_reach = Reach.build_frozen patch.Delta.p_frozen in
    let reach_identical =
      Reach.node_count patched_reach = Reach.node_count fresh_reach
      && Reach.scc_count patched_reach = Reach.scc_count fresh_reach
      && List.for_all
           (fun (si, di) ->
             Reach.mem patched_reach ~src:si ~target:di
             = Reach.mem fresh_reach ~src:si ~target:di
             && Reach.cone_size patched_reach ~target:di
                = Reach.cone_size fresh_reach ~target:di)
           pairs
    in
    let identical = frozen_identical && reach_identical in
    let patch_total = patch_s +. reach_patch_s in
    (* The sublinearity claim is about the incremental patch itself
       ([Delta.apply]); reach maintenance is reported alongside. *)
    patch_times := (methods, patch_s) :: !patch_times;
    Printf.printf
      "  world: %d nodes, %d edges; cold rebuild to serving state %.3f s\n\
      \  single-class delta: apply %.4f s + reach patch %.4f s = %.4f s \
       (%s, %d touched) — %.0fx vs rebuild; identical %b\n\
       %!"
      nodes edges rebuild_s patch_s reach_patch_s patch_total
      (Delta.mode_string patch.Delta.p_mode)
      patch.Delta.p_touched_count
      (rebuild_s /. patch_total)
      identical;
    if not (identical && spliced) then failed := true;
    if patch_total >= rebuild_s then failed := true;
    let best_of_5 f =
      let best = ref infinity and last = ref None in
      for _ = 1 to 5 do
        let t, r = time_of f in
        if t < !best then best := t;
        last := Some r
      done;
      (!best, Option.get !last)
    in
    (* The sink edit, the shape of most of perfbench's reload-10k deltas: a
       class gains a method that takes one reference parameter and returns
       a type of a small sink region. Those edits accumulate: each one adds
       a path into the sink from another class, so the sink's upstream cone
       grows (on the reload-10k stream the new edges' endpoints reached ~75%
       of the nodes). Here earlier edits from random classes widen one
       sink's cone past half the nodes, and the timed edit is the next one.
       Its edges' sources are its class and its parameter type, so reach
       maintenance re-closes what lies upstream of those two, not the
       sink's cone; it must cost less than a cold index build of the same
       snapshot. *)
    let sink_base, sink_base_reach, sink_edit =
      let rng = Corpusgen.Rng.create ~seed:53 in
      let draw () = editable.(Corpusgen.Rng.int rng (Array.length editable)) in
      let node (d : Javamodel.Decl.t) =
        Option.get
          (Graph.frozen_find_type_node frozen (Javamodel.Jtype.Ref d.Javamodel.Decl.dname))
      in
      let target = draw () in
      let t = node target in
      let edit k (c : Javamodel.Decl.t) =
        let p = draw () in
        let m =
          Javamodel.Member.meth
            (Printf.sprintf "zzSink%d" k)
            ~params:[ ("arg0", Javamodel.Jtype.Ref p.Javamodel.Decl.dname) ]
            ~ret:(Javamodel.Jtype.Ref target.Javamodel.Decl.dname)
        in
        Delta.Replace_class { c with Javamodel.Decl.methods = c.Javamodel.Decl.methods @ [ m ] }
      in
      (* hosts that cannot reach the sink yet, each widening its cone, until
         the cone holds half the nodes; the last one is the timed edit *)
      let cone = Array.init nodes (fun x -> Reach.mem reach ~src:x ~target:t) in
      let size = ref (Array.fold_left (fun a b -> if b then a + 1 else a) 0 cone) in
      let hosts = ref [] and draws = ref 0 in
      while !size < nodes / 2 && !draws < 100_000 do
        incr draws;
        let c = draw () in
        let cn = node c in
        if (not cone.(cn)) && not (List.memq c !hosts) then begin
          hosts := c :: !hosts;
          for x = 0 to nodes - 1 do
            if (not cone.(x)) && Reach.mem reach ~src:x ~target:cn then begin
              cone.(x) <- true;
              incr size
            end
          done
        end
      done;
      let last = List.hd !hosts in
      let base =
        match
          Delta.apply ~hierarchy:h ~frozen (List.mapi edit (List.rev (List.tl !hosts)))
        with
        | Ok p -> p
        | Error _ -> failwith "bench sink base delta rejected"
      in
      let hb = base.Delta.p_hierarchy in
      ( base,
        Reach.build_frozen base.Delta.p_frozen,
        edit (List.length !hosts) (Javamodel.Hierarchy.find hb last.Javamodel.Decl.dname) )
    in
    let sink =
      match
        Delta.apply ~hierarchy:sink_base.Delta.p_hierarchy ~frozen:sink_base.Delta.p_frozen
          [ sink_edit ]
      with
      | Ok p -> p
      | Error _ -> failwith "bench sink delta rejected"
    in
    let sink_reach_s, sink_reach =
      best_of_5 (fun () ->
          Reach.patch ~old:sink_base_reach ~sources:sink.Delta.p_sources sink.Delta.p_frozen)
    in
    let sink_cold_s, sink_cold = best_of_5 (fun () -> Reach.build_frozen sink.Delta.p_frozen) in
    let sink_identical =
      sink.Delta.p_mode = Delta.Spliced
      && Delta.frozen_equal sink.Delta.p_frozen
           (Graph.freeze (Sig_graph.build sink.Delta.p_hierarchy))
      && Reach.components sink_reach = Reach.components sink_cold
      && List.for_all
           (fun (si, di) ->
             Reach.mem sink_reach ~src:si ~target:di = Reach.mem sink_cold ~src:si ~target:di
             && Reach.cone_size sink_reach ~target:di = Reach.cone_size sink_cold ~target:di)
           pairs
    in
    Printf.printf
      "  sink edit (%s, %d touched, after %d widening edits): reach patch %.5f s vs cold \
       reach build %.5f s; identical %b\n%!"
      (Delta.mode_string sink.Delta.p_mode) sink.Delta.p_touched_count sink_base.Delta.p_ops
      sink_reach_s sink_cold_s sink_identical;
    if not sink_identical then failed := true;
    if sink_reach_s >= sink_cold_s then failed := true;
    (* The additive delta, perfbench's other reload shape: a fresh interface
       with one method. It rebuilds (a new class moves node ids), so the
       reach index is built cold; the hierarchy closes over the delta's own
       declaration and keeps its warm memos, so warming the patch costs
       nothing. Checked against a cold build of the model assembled the
       slow way, with a whole-hierarchy closure. *)
    Javamodel.Hierarchy.warm h;
    let added =
      let host = editable.(0) in
      Javamodel.Decl.make ~kind:Javamodel.Decl.Interface
        ~methods:
          [ Javamodel.Member.meth "zzGet" ~params:[] ~ret:(Javamodel.Jtype.Ref host.Javamodel.Decl.dname) ]
        (Javamodel.Qname.make
           ~pkg:(Javamodel.Qname.package host.Javamodel.Decl.dname)
           "ZzAdded")
    in
    let add_apply_s, add =
      best_of_5 (fun () ->
          match Delta.apply ~hierarchy:h ~frozen [ Delta.Add_class added ] with
          | Ok p -> p
          | Error _ -> failwith "bench additive delta rejected")
    in
    let add_warm_s, () = time_of (fun () -> Javamodel.Hierarchy.warm add.Delta.p_hierarchy) in
    let add_reach_s, _ = best_of_5 (fun () -> Reach.build_frozen add.Delta.p_frozen) in
    let add_identical =
      let r = Javamodel.Hierarchy.copy h in
      Javamodel.Hierarchy.add r added;
      Javamodel.Hierarchy.ensure_closed r;
      Delta.frozen_equal add.Delta.p_frozen (Graph.freeze (Sig_graph.build r))
    in
    Printf.printf
      "  additive delta (%s): apply %.5f s, reach build %.5f s, warm %.6f s; identical %b\n%!"
      (Delta.mode_string add.Delta.p_mode) add_apply_s add_reach_s add_warm_s add_identical;
    if not add_identical then failed := true;
    (* Query latency under churn: a delta lands every [churn_every]
       queries, and its cost falls on the query blocked behind the swap —
       exactly what a single-pipeline server's tail latency sees. The
       baseline pays a full rebuild at each delta instead. *)
    let n_queries = 120 and churn_every = 12 in
    let qarr = Array.of_list qs in
    let nq = Array.length qarr in
    let churn_run ~reload ~query =
      let lats = ref [] in
      for i = 0 to n_queries - 1 do
        let t0 = now () in
        if i > 0 && i mod churn_every = 0 then reload (i / churn_every);
        query i;
        lats := (now () -. t0) :: !lats
      done;
      !lats
    in
    let inc_lats =
      let engine =
        Query.engine_of_frozen ~reach ~frozen ~hierarchy:h ()
      in
      churn_run
        ~reload:(fun k ->
          let hcur = Query.engine_hierarchy engine in
          let fzcur = Query.engine_frozen engine in
          match Delta.apply ~hierarchy:hcur ~frozen:fzcur [ body_edit k hcur ] with
          | Ok p -> Query.engine_reload engine p
          | Error _ -> failwith "churn delta rejected")
        ~query:(fun i ->
          ignore (Query.run_batch engine [ qarr.(i mod nq) ]))
    in
    let reb_lats =
      let hcur = ref (Javamodel.Hierarchy.copy h) in
      let eng =
        ref (Query.engine_of_frozen ~reach ~frozen ~hierarchy:!hcur ())
      in
      churn_run
        ~reload:(fun k ->
          (match body_edit k !hcur with
          | Delta.Replace_class d -> Javamodel.Hierarchy.replace !hcur d
          | _ -> assert false);
          let fz = Graph.freeze (Sig_graph.build !hcur) in
          let r = Reach.build_frozen fz in
          eng :=
            Query.engine_of_frozen ~reach:r ~frozen:fz
              ~hierarchy:!hcur ())
        ~query:(fun i ->
          ignore (Query.run_batch !eng [ qarr.(i mod nq) ]))
    in
    (* The tail is the maximum, not a percentile: the 9 reload stalls are
       the top 7.5% of the 120 samples, so a p99 (the second largest here)
       has fewer than ten samples beyond it and can miss every stall. *)
    let ms lats p = percentile lats p *. 1000.0 in
    let max_ms lats = List.fold_left max 0.0 lats *. 1000.0 in
    let inc_p50 = ms inc_lats 0.50 and inc_max = max_ms inc_lats in
    let reb_p50 = ms reb_lats 0.50 and reb_max = max_ms reb_lats in
    Printf.printf
      "  churn (%d queries, delta every %d): incremental p50 %.3f ms, max \
       %.3f ms; full-rebuild p50 %.3f ms, max %.3f ms\n\
       %!"
      n_queries churn_every inc_p50 inc_max reb_p50 reb_max;
    if methods >= 10_000 && inc_max >= reb_max then failed := true;
    Printf.sprintf
      "    {\n\
      \      \"methods\": %d,\n\
      \      \"nodes\": %d,\n\
      \      \"edges\": %d,\n\
      \      \"rebuild_s\": %.4f,\n\
      \      \"patch_apply_s\": %.5f,\n\
      \      \"patch_reach_s\": %.5f,\n\
      \      \"patch_total_s\": %.5f,\n\
      \      \"patch_mode\": \"%s\",\n\
      \      \"touched_nodes\": %d,\n\
      \      \"patch_speedup_vs_rebuild\": %.1f,\n\
      \      \"identical\": %b,\n\
      \      \"sink_widening_edits\": %d,\n\
      \      \"sink_touched_nodes\": %d,\n\
      \      \"sink_patch_reach_s\": %.5f,\n\
      \      \"sink_cold_reach_s\": %.5f,\n\
      \      \"sink_identical\": %b,\n\
      \      \"add_mode\": \"%s\",\n\
      \      \"add_apply_s\": %.5f,\n\
      \      \"add_reach_s\": %.5f,\n\
      \      \"add_warm_s\": %.6f,\n\
      \      \"add_identical\": %b,\n\
      \      \"churn_queries\": %d,\n\
      \      \"churn_every\": %d,\n\
      \      \"incremental_p50_ms\": %.4f,\n\
      \      \"incremental_max_ms\": %.4f,\n\
      \      \"rebuild_p50_ms\": %.4f,\n\
      \      \"rebuild_max_ms\": %.4f\n\
      \    }"
      methods nodes edges rebuild_s patch_s reach_patch_s patch_total
      (Delta.mode_string patch.Delta.p_mode)
      patch.Delta.p_touched_count
      (rebuild_s /. patch_total)
      identical sink_base.Delta.p_ops sink.Delta.p_touched_count sink_reach_s sink_cold_s
      sink_identical
      (Delta.mode_string add.Delta.p_mode)
      add_apply_s add_reach_s add_warm_s add_identical n_queries churn_every inc_p50 inc_max
      reb_p50 reb_max
  in
  let rows = List.map measure sizes in
  (* Sublinearity gate: a single-class patch must grow slower than the
     graph. The append path rewrites only the touched rows and copies only
     the O(nodes) offset lanes, so apply time is dominated by the edit, not
     the edge count. *)
  let scaling_ratio, sublinear =
    match List.rev !patch_times with
    | (m1, t1) :: (m2, t2) :: _ when m2 > m1 && t1 > 0.0 ->
        let r = t2 /. t1 in
        (r, r < float_of_int m2 /. float_of_int m1)
    | _ -> (1.0, true)
  in
  if not sublinear then failed := true;
  Printf.printf "\npatch-time scaling ratio across sizes: %.2fx (sublinear %b)\n%!"
    scaling_ratio sublinear;
  let json =
    Printf.sprintf
      "{\n\
      \  \"sizes\": [\n\
       %s\n\
      \  ],\n\
      \  \"patch_scaling_ratio\": %.3f,\n\
      \  \"patch_sublinear\": %b\n\
       }\n"
      (String.concat ",\n" rows) scaling_ratio sublinear
  in
  write_bench ~model_methods:(List.fold_left max 0 sizes) "BENCH_reload.json"
    json;
  if !failed then begin
    prerr_endline
      "error: reload gate failed (oracle divergence, rebuild-beating patch, \
       a sink-edit reach patch no cheaper than a cold reach build, or \
       superlinear patch time)";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", section_table1);
    ("extended", section_extended);
    ("perf", section_perf);
    ("figure8", section_figure8);
    ("scaling", section_scaling);
    ("figures", section_figures);
    ("mining_accuracy", section_mining_accuracy);
    ("rank_ablation", section_rank_ablation);
    ("search_bound", section_search_bound);
    ("cap_sweep", section_cap_sweep);
    ("objparam", section_objparam);
    ("cache", section_cache);
    ("analysis", section_analysis);
    ("server", section_server);
    ("parallel", section_parallel);
    ("topk", section_topk);
    ("rank", section_rank);
    ("refine", section_refine);
    ("proto", section_proto);
    ("scale", section_scale);
    ("reload", section_reload);
    ("micro", section_micro);
  ]

let () =
  (* Sections select by bare name or by `--section NAME` (repeatable;
     `--section=NAME` also accepted) — the flag form is what Makefile
     targets and scripts use. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | [ "--section" ] ->
        prerr_endline "error: --section requires a section name";
        exit 1
    | "--section" :: name :: rest -> parse (name :: acc) rest
    | arg :: rest when String.starts_with ~prefix:"--section=" arg ->
        parse (String.sub arg 10 (String.length arg - 10) :: acc) rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let requested = parse [] (List.tl (Array.to_list Sys.argv)) in
  let unknown =
    List.filter (fun name -> not (List.mem_assoc name sections)) requested
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown section(s) %s; available: %s\n"
      (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 1
  end;
  let to_run =
    if requested = [] then sections
    else List.filter (fun (name, _) -> List.mem name requested) sections
  in
  List.iter (fun (_, f) -> f ()) to_run
