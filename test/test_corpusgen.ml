(* Tests for the synthetic workload generators: determinism, structure, and
   the ground-truth accuracy scoring of Section 4.4. *)

module Hierarchy = Javamodel.Hierarchy
module Rng = Corpusgen.Rng
module Apigen = Corpusgen.Apigen
module Truthgen = Corpusgen.Truthgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  check_bool "different streams" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let xs = List.init 50 (fun i -> i) in
  let ys = Rng.shuffle r xs in
  check_bool "same elements" true (List.sort compare ys = xs)

let test_rng_bool_probability () =
  let r = Rng.create ~seed:4 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bool r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. 10000.0 in
  check_bool "frequency near 0.3" true (freq > 0.25 && freq < 0.35)

(* ---------- apigen ---------- *)

let test_apigen_size () =
  let h = Apigen.generate { Apigen.default_params with classes = 100 } in
  check_bool "at least 100 decls" true (Hierarchy.size h >= 100)

let test_apigen_deterministic () =
  let p = { Apigen.default_params with classes = 50 } in
  let a = Apigen.generate p and b = Apigen.generate p in
  check_int "same size" (Hierarchy.size a) (Hierarchy.size b);
  let decl h = Hierarchy.find h (Apigen.class_qname p 7) in
  check_bool "same decl" true (Javamodel.Decl.equal (decl a) (decl b))

let test_apigen_builds_graph () =
  let h = Apigen.generate { Apigen.default_params with classes = 100 } in
  let g = Prospector.Sig_graph.build h in
  check_bool "nodes" true (Prospector.Graph.node_count g > 100);
  check_bool "edges" true (Prospector.Graph.edge_count g > 200)

let test_random_queries_solvable () =
  let h = Corpusgen.Workload.scaling_api ~classes:100 in
  let g = Prospector.Sig_graph.build h in
  let qs = Corpusgen.Workload.random_queries h g ~count:10 ~seed:5 in
  check_bool "got some queries" true (List.length qs > 0);
  List.iter
    (fun q ->
      check_bool "solvable" true
        (Prospector.Query.run ~frozen:(Prospector.Query.freeze g) ~hierarchy:h q <> []))
    qs

(* ---------- truthgen: the §4.4 accuracy experiment ---------- *)

let test_truth_full_coverage_perfect () =
  let t = Truthgen.generate { Truthgen.default_params with producers = 10 } in
  let s = Truthgen.score t in
  check_float "complete" 1.0 s.Truthgen.completeness;
  check_float "precise" 1.0 s.Truthgen.precision;
  check_bool "synthesized downcasts" true (s.Truthgen.synthesized >= 10)

let test_truth_partial_coverage () =
  let t =
    Truthgen.generate { Truthgen.default_params with producers = 30; coverage = 0.5; seed = 11 }
  in
  let s = Truthgen.score t in
  let covered =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.Truthgen.covered
  in
  let expected = float_of_int covered /. 30.0 in
  check_bool "completeness equals coverage" true
    (abs_float (s.Truthgen.completeness -. expected) < 0.001);
  check_float "precision stays perfect" 1.0 s.Truthgen.precision

let test_truth_no_generalization_kills_completeness () =
  let t = Truthgen.generate { Truthgen.default_params with producers = 10 } in
  let s = Truthgen.score ~generalize:false t in
  (* ungeneralized examples start at void, so (Registry, Model_i) queries
     find nothing — the paper's motivation for generalization *)
  check_float "no completeness" 0.0 s.Truthgen.completeness

let test_truth_overgeneralization_hurts_precision () =
  (* A single covered producer and min_keep 0: the suffix collapses to the
     bare cast, which the signature graph then applies to every
     Object-returning lookup — precision collapses (the Figure 3 risk). *)
  let covered = Array.init 8 (fun i -> i = 0) in
  let t =
    Truthgen.generate_with ~covered
      { Truthgen.default_params with producers = 8; seed = 3 }
  in
  let strict = Truthgen.score ~min_keep:1 t in
  let loose = Truthgen.score ~min_keep:0 t in
  check_float "min_keep 1 precise" 1.0 strict.Truthgen.precision;
  check_bool "min_keep 0 imprecise" true (loose.Truthgen.precision < 0.5)

let test_truth_flow_sensitivity_gap () =
  (* One method reuses a single Object variable across producers: every
     cast is viable in the source, but the flow-insensitive slicer wires
     each cast to every reassignment — precision collapses to ~1/k, while
     the flow-sensitive ablation recovers it. Completeness is unaffected. *)
  let t =
    Truthgen.generate
      { Truthgen.default_params with producers = 6; reuse_variable = true; seed = 5 }
  in
  let insensitive = Truthgen.score ~tin:"void" t in
  let sensitive = Truthgen.score ~flow_sensitive:true ~tin:"void" t in
  check_float "flow-sensitive precision perfect" 1.0 sensitive.Truthgen.precision;
  check_bool
    (Printf.sprintf "flow-insensitive precision %.2f well below 1"
       insensitive.Truthgen.precision)
    true
    (insensitive.Truthgen.precision < 0.8);
  check_float "both complete" 1.0 insensitive.Truthgen.completeness;
  check_float "sensitive complete" 1.0 sensitive.Truthgen.completeness

(* ---------- branchy corpus (cap sweep workload) ---------- *)

let test_branchy_corpus_extracts () =
  let h, corpus = Corpusgen.Workload.branchy_corpus ~branches:8 in
  let prog = Minijava.Resolve.parse_program ~api:h corpus in
  let df = Mining.Dataflow.build prog in
  check_int "eight examples" 8 (List.length (Mining.Extract.extract df));
  check_bool "cap binds" true
    (List.length (Mining.Extract.extract ~max_per_cast:2 df) <= 2)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "corpusgen"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "bounds" test_rng_bounds;
          tc "seeds differ" test_rng_seeds_differ;
          tc "shuffle permutation" test_rng_shuffle_permutation;
          tc "bool probability" test_rng_bool_probability;
        ] );
      ( "apigen",
        [
          tc "size" test_apigen_size;
          tc "deterministic" test_apigen_deterministic;
          tc "builds graph" test_apigen_builds_graph;
          tc "random queries solvable" test_random_queries_solvable;
        ] );
      ( "truthgen",
        [
          tc "full coverage perfect" test_truth_full_coverage_perfect;
          tc "partial coverage" test_truth_partial_coverage;
          tc "no generalization kills completeness"
            test_truth_no_generalization_kills_completeness;
          tc "overgeneralization hurts precision"
            test_truth_overgeneralization_hurts_precision;
          tc "flow-sensitivity precision gap" test_truth_flow_sensitivity_gap;
        ] );
      ("workload", [ tc "branchy corpus" test_branchy_corpus_extracts ]);
    ]
