(* Live-reload invariants (DESIGN §9). The correctness oracle: a
   delta-patched frozen snapshot is lane-for-lane identical to a cold
   rebuild from the patched model, whichever path (spliced or rebuilt) the
   delta took — checked over random op sequences on Apigen worlds. The
   reach index patched through [Reach.patch] must be bit-for-bit the fresh
   build. Printed delta-sized .japi files must reload to the same model,
   and after every reload an engine's cached answers must be the ones its
   uncached pipeline gives on the patched snapshot. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Decl = Javamodel.Decl
module Member = Javamodel.Member
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Sig_graph = Prospector.Sig_graph
module Delta = Prospector.Delta
module Reach = Prospector.Reach
module Query = Prospector.Query
module Rng = Corpusgen.Rng
module Apigen = Corpusgen.Apigen

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- random delta sequences over Apigen worlds ---------- *)

let real_decls h =
  List.filter (fun (d : Decl.t) -> not d.Decl.synthetic) (Hierarchy.decls h)

(* A method whose types are already interned, so a lone add stays
   spliceable; [tag] keeps names unique across the op sequence. *)
let fresh_meth rng h tag =
  let ret = Jtype.Ref (Rng.pick rng (real_decls h)).Decl.dname in
  Member.meth (Printf.sprintf "zzReload%d" tag) ~params:[] ~ret

(* Generate [nops] ops against a private copy of [h], applying each to the
   copy as we go — later ops must see earlier effects, exactly as
   [Delta.apply] validates them. *)
let build_ops rng h nops =
  let hcur = Hierarchy.copy h in
  let tag = ref 0 in
  let next_tag () = incr tag; !tag in
  let rec gen_op retries =
    let decls =
      List.filter
        (fun (d : Decl.t) -> Qname.to_string d.Decl.dname <> "java.lang.Object")
        (real_decls hcur)
    in
    let d = Rng.pick rng decls in
    match Rng.int rng 5 with
    | 0 ->
        (* body-only replacement: the spliced shape *)
        let d' = { d with Decl.methods = fresh_meth rng hcur (next_tag ()) :: d.Decl.methods } in
        Hierarchy.replace hcur d';
        Delta.Replace_class d'
    | 1 ->
        let m = fresh_meth rng hcur (next_tag ()) in
        Hierarchy.replace hcur { d with Decl.methods = d.Decl.methods @ [ m ] };
        Delta.Add_method (d.Decl.dname, m)
    | 2 when d.Decl.methods <> [] ->
        let victim = (Rng.pick rng d.Decl.methods).Member.mname in
        let keep = List.filter (fun (m : Member.meth) -> m.Member.mname <> victim) d.Decl.methods in
        Hierarchy.replace hcur { d with Decl.methods = keep };
        Delta.Remove_method (d.Decl.dname, victim)
    | 3 ->
        let q = Qname.of_string (Printf.sprintf "zz.Fresh%d" (next_tag ())) in
        let m = fresh_meth rng hcur (next_tag ()) in
        let fresh = Decl.make ~methods:[ m ] q in
        Hierarchy.add hcur fresh;
        Delta.Add_class fresh
    | 4 when List.length decls > 2 ->
        Hierarchy.remove hcur d.Decl.dname;
        Delta.Remove_class d.Decl.dname
    | _ -> if retries = 0 then gen_op 1 else gen_op 0
    (* the two guarded arms can fail their guards; retry resamples *)
  in
  List.init nops (fun _ -> gen_op 0)

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 10 40 in
    let* nops = int_range 1 6 in
    return (seed, classes, nops))

let freeze_cold h = Graph.freeze (Sig_graph.build h)

(* Bit-for-bit reach equality: the node -> component map, and the closure
   bit of every (src, target) pair, which is bit [target] of src's
   component's closure — together every bit the index holds. Structural,
   so physical reuse inside the patched index cannot skew it. *)
let reach_equal a b =
  let n = Reach.node_count a in
  Reach.node_count b = n
  && Reach.generation a = Reach.generation b
  && Reach.scc_count a = Reach.scc_count b
  && Reach.components a = Reach.components b
  && Seq.for_all
       (fun src ->
         Seq.for_all
           (fun target -> Reach.mem a ~src ~target = Reach.mem b ~src ~target)
           (Seq.init n Fun.id))
       (Seq.init n Fun.id)

let roundtrips h =
  let h' = Japi.Loader.load_files (Japi.Printer.print_files h) in
  let a = real_decls h and b = real_decls h' in
  List.length a = List.length b && List.for_all2 Decl.equal a b

let prop_patched_equals_cold =
  QCheck2.Test.make ~name:"patched frozen = cold-rebuilt frozen, lane for lane"
    ~count:60 world_gen (fun (seed, classes, nops) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let frozen = freeze_cold h in
      let rng = Rng.create ~seed:(seed lxor 0x5eed) in
      let ops = build_ops rng h nops in
      match Delta.apply ~hierarchy:h ~frozen ops with
      | Error errs ->
          QCheck2.Test.fail_reportf "delta rejected: %s"
            (String.concat "; "
               (List.map (fun (e : Delta.error) -> e.Delta.reason) errs))
      | Ok patch ->
          let cold = freeze_cold patch.Delta.p_hierarchy in
          Delta.frozen_equal patch.Delta.p_frozen cold
          && Graph.frozen_generation patch.Delta.p_frozen
             > Graph.frozen_generation frozen
          && roundtrips patch.Delta.p_hierarchy)

let prop_reach_patch_identity =
  QCheck2.Test.make ~name:"Reach.patch = Reach.build_frozen on the patched snapshot"
    ~count:40 world_gen (fun (seed, classes, nops) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let frozen = freeze_cold h in
      let old = Reach.build_frozen frozen in
      let rng = Rng.create ~seed:(seed lxor 0xcafe) in
      let ops = build_ops rng h nops in
      match Delta.apply ~hierarchy:h ~frozen ops with
      | Error _ -> false
      | Ok patch ->
          let patched =
            Reach.patch ~old ~touched:patch.Delta.p_touched patch.Delta.p_frozen
          in
          reach_equal patched (Reach.build_frozen patch.Delta.p_frozen))

(* A lone method addition with already-interned types is the canonical
   live-edit: it must take the spliced path, not the rebuild fallback. *)
let prop_add_method_splices =
  QCheck2.Test.make ~name:"single add-method on an unenriched snapshot splices"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* classes = int_range 10 40 in
      return (seed, classes))
    (fun (seed, classes) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let frozen = freeze_cold h in
      let rng = Rng.create ~seed in
      let d = Rng.pick rng (real_decls h) in
      let m = fresh_meth rng h 1 in
      match Delta.apply ~hierarchy:h ~frozen [ Delta.Add_method (d.Decl.dname, m) ] with
      | Error _ -> false
      | Ok patch ->
          patch.Delta.p_mode = Delta.Spliced
          && patch.Delta.p_touched_count > 0
          && Delta.frozen_equal patch.Delta.p_frozen
               (freeze_cold patch.Delta.p_hierarchy))

(* The caller's cold build replaces [Delta]'s own on the fallback path:
   it runs exactly once when the patch is rebuilt, never when it splices,
   and the patch still meets the oracle. *)
let prop_rebuild_closure_once =
  QCheck2.Test.make ~name:"Delta.apply ~rebuild runs once per rebuild, never on a splice"
    ~count:40 world_gen (fun (seed, classes, nops) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let frozen = freeze_cold h in
      let ops = build_ops (Rng.create ~seed:(seed lxor 0xb11d)) h nops in
      let builds = ref 0 in
      let rebuild h = incr builds; freeze_cold h in
      match Delta.apply ~rebuild ~hierarchy:h ~frozen ops with
      | Error _ -> false
      | Ok patch ->
          !builds = (match patch.Delta.p_mode with Delta.Rebuilt -> 1 | Delta.Spliced -> 0)
          && Delta.frozen_equal patch.Delta.p_frozen (freeze_cold patch.Delta.p_hierarchy)
          && Graph.frozen_generation patch.Delta.p_frozen > Graph.frozen_generation frozen)

(* The same through the daemon's reload op: a service given the cold
   enriched build calls it once for a structural reload and not at all for
   a body-only edit. *)
let test_service_builds_once () =
  let module Service = Prospector_server.Service in
  let h = Japi.Loader.load_string "package p; class A { B toB(); } class B { }" in
  let builds = ref 0 in
  let rebuild h =
    incr builds;
    let g = Sig_graph.build h in
    ignore (Graph.void_node g);
    Graph.freeze g
  in
  let svc =
    Service.create ~rebuild
      ~engine:(Prospector.Query.engine ~graph:(Sig_graph.build h) ~hierarchy:h ())
      ()
  in
  let reload japi =
    Service.handle_line svc
      (Printf.sprintf "{\"op\": \"reload\", \"japi\": %s}"
         (Prospector_server.Proto.to_string (Prospector_server.Proto.Str japi)))
  in
  let r = reload "package p; class A { B toB(); B again(); }" in
  Alcotest.(check bool) ("body edit splices: " ^ r) true (contains r "spliced");
  Alcotest.(check int) "no build for a splice" 0 !builds;
  let r = reload "package p; interface I { }" in
  Alcotest.(check bool) ("new class rebuilds: " ^ r) true (contains r "rebuilt");
  Alcotest.(check int) "one build for a structural reload" 1 !builds

(* ---------- japi round-trip at delta-file scale ---------- *)

let prop_delta_file_roundtrip =
  QCheck2.Test.make ~name:"japi printer/loader round-trips delta-sized files"
    ~count:60
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* classes = int_range 1 6 in
      return
        (Apigen.generate
           { Apigen.default_params with classes; seed; packages = 1 }))
    roundtrips

(* ---------- engine caches across reloads ---------- *)

(* The class an op edits against the return type of each method the class
   has in the starting model or that the op gives it: the queries a body
   edit can change. *)
let edit_queries h op =
  let name =
    match op with
    | Delta.Add_class d | Delta.Replace_class d -> d.Decl.dname
    | Delta.Remove_class q | Delta.Add_method (q, _) | Delta.Remove_method (q, _) -> q
  in
  let rets (d : Decl.t) = List.map (fun (m : Member.meth) -> m.Member.ret) d.Decl.methods in
  let before = match Hierarchy.find_opt h name with Some d -> rets d | None -> [] in
  let after =
    match op with
    | Delta.Add_class d | Delta.Replace_class d -> rets d
    | Delta.Add_method (_, m) -> [ m.Member.ret ]
    | Delta.Remove_class _ | Delta.Remove_method _ -> []
  in
  List.map (fun tout -> { Query.tin = Jtype.Ref name; tout }) (before @ after)

(* Warm both engine caches, then apply the ops one reload at a time: after
   each, every cached answer (single- and multi-source) must equal the
   uncached pipeline's on the engine's own snapshot, index and hierarchy.
   An entry that survived a reload it should not have serves the old
   world's answer and fails this. *)
let prop_engine_caches_follow_reloads =
  QCheck2.Test.make ~name:"caches agree after every reload"
    ~count:40 world_gen (fun (seed, classes, nops) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let e = Query.engine ~graph:(Sig_graph.build h) ~hierarchy:h () in
      let ops = build_ops (Rng.create ~seed:(seed lxor 0xcac4e)) h nops in
      let qs = List.sort_uniq compare (List.concat_map (edit_queries h) ops) in
      let assist (q : Query.t) = ([ ("x", q.Query.tin) ], q.Query.tout) in
      let agree () =
        let frozen = Query.engine_frozen e and reach = Query.engine_reach e in
        let hierarchy = Query.engine_hierarchy e in
        List.for_all
          (fun q ->
            Query.run_cached e q = Query.run ~frozen ?reach ~hierarchy q
            &&
            let vars, tout = assist q in
            Query.run_multi_cached e ~vars ~tout ()
            = Query.run_multi ~frozen ?reach ~hierarchy ~vars ~tout ())
          qs
      in
      ignore (agree ());
      List.for_all
        (fun op ->
          match
            Delta.apply ~hierarchy:(Query.engine_hierarchy e)
              ~frozen:(Query.engine_frozen e) [ op ]
          with
          | Error _ -> false
          | Ok patch ->
              Query.engine_reload e patch;
              agree ())
        ops)

(* The daemon's per-worker caches across a reload: each empties itself on
   its own first read of the new generation (one invalidation, only when it
   held entries), and stats count only the entries of the published
   generation, whichever worker holds them. *)
let test_worker_caches_drop_stale () =
  let module Service = Prospector_server.Service in
  let module Proto = Prospector_server.Proto in
  let h = Japi.Loader.load_string "package p; class A { B toB(); } class B { }" in
  let svc =
    Service.create ~engine:(Query.engine ~graph:(Sig_graph.build h) ~hierarchy:h ()) ()
  in
  let w1 = Service.local svc and w2 = Service.local svc in
  let query local =
    ignore (Service.handle_line ~local svc {|{"op": "query", "tin": "p.A", "tout": "p.B"}|})
  in
  let expect what ~entries ~hits ~misses ~invalidations =
    let cache =
      Result.to_option (Proto.parse (Service.handle_line svc {|{"op": "stats"}|}))
      |> Fun.flip Option.bind (Proto.member "cache")
    in
    List.iter
      (fun (k, v) ->
        Alcotest.(check (option int)) (what ^ ": " ^ k) (Some v)
          (match Option.bind cache (Proto.member k) with
          | Some (Proto.Int i) -> Some i
          | _ -> None))
      [
        ("entries", entries); ("hits", hits); ("misses", misses);
        ("invalidations", invalidations);
      ]
  in
  query w1;
  ignore
    (Service.handle_line svc
       {|{"op": "reload", "japi": "package p; class A { B toB(); B again(); }"}|});
  expect "after the reload" ~entries:0 ~hits:0 ~misses:1 ~invalidations:0;
  query w2;
  expect "an empty cache drops nothing" ~entries:1 ~hits:0 ~misses:2 ~invalidations:0;
  query w1;
  expect "the stale cache empties on its next read" ~entries:2 ~hits:0 ~misses:3
    ~invalidations:1;
  query w2;
  expect "the current generation hits" ~entries:2 ~hits:1 ~misses:3 ~invalidations:1

let () =
  Alcotest.run "reload"
    [
      ( "delta oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_patched_equals_cold; prop_reach_patch_identity; prop_add_method_splices;
            prop_rebuild_closure_once;
          ]
        @ [
            Alcotest.test_case "the service builds once per structural reload" `Quick
              test_service_builds_once;
          ] );
      ( "japi round-trip",
        List.map QCheck_alcotest.to_alcotest [ prop_delta_file_roundtrip ] );
      ( "engine caches",
        List.map QCheck_alcotest.to_alcotest [ prop_engine_caches_follow_reloads ]
        @ [
            Alcotest.test_case "worker caches drop stale generations" `Quick
              test_worker_caches_drop_stale;
          ] );
    ]
