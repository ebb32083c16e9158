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
   spliceable; [tag] keeps names unique across the op sequence. With
   [~missing] it returns a name nothing declares instead, which the
   delta's closure must add as a placeholder. *)
let fresh_meth ?(missing = false) rng h tag =
  let ret =
    if missing then Jtype.Ref (Qname.of_string (Printf.sprintf "zz.Missing%d" tag))
    else Jtype.Ref (Rng.pick rng (real_decls h)).Decl.dname
  in
  Member.meth (Printf.sprintf "zzReload%d" tag) ~params:[] ~ret

(* The declaration [d] with method [m] appended to its body: a method
   addition, as a class-level op. *)
let with_method (d : Decl.t) m = { d with Decl.methods = d.Decl.methods @ [ m ] }

(* Generate [nops] ops against a private copy of [h], applying each to the
   copy as we go — later ops must see earlier effects, exactly as
   [Delta.apply] validates them. A method edit is a [Replace_class] of the
   edited declaration: a method prepended, appended or removed by name.
   With [~spliced:true] only those body-only edits are drawn, with already
   interned types; otherwise an appended method, and a fresh class's
   method or superclass, may name an undeclared type. *)
let build_ops ?(spliced = false) rng h nops =
  let hcur = Hierarchy.copy h in
  let tag = ref 0 in
  let next_tag () = incr tag; !tag in
  let replace d' =
    Hierarchy.replace hcur d';
    Delta.Replace_class d'
  in
  let rec gen_op retries =
    let decls =
      List.filter
        (fun (d : Decl.t) -> Qname.to_string d.Decl.dname <> "java.lang.Object")
        (real_decls hcur)
    in
    let d = Rng.pick rng decls in
    match Rng.int rng (if spliced then 3 else 5) with
    | 0 ->
        (* body-only replacement: the spliced shape *)
        replace { d with Decl.methods = fresh_meth rng hcur (next_tag ()) :: d.Decl.methods }
    | 1 ->
        let missing = (not spliced) && Rng.int rng 4 = 0 in
        replace (with_method d (fresh_meth ~missing rng hcur (next_tag ())))
    | 2 when d.Decl.methods <> [] ->
        let victim = (Rng.pick rng d.Decl.methods).Member.mname in
        replace
          {
            d with
            Decl.methods =
              List.filter (fun (m : Member.meth) -> m.Member.mname <> victim) d.Decl.methods;
          }
    | 3 ->
        let q = Qname.of_string (Printf.sprintf "zz.Fresh%d" (next_tag ())) in
        let m = fresh_meth ~missing:(Rng.bool rng 0.5) rng hcur (next_tag ()) in
        let extends =
          if Rng.int rng 4 = 0 then
            [ Qname.of_string (Printf.sprintf "zz.MissingSuper%d" (next_tag ())) ]
          else []
        in
        let fresh = Decl.make ~extends ~methods:[ m ] q in
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

(* The patched model the slow way: every op through the plain hierarchy
   calls, then a closure over the whole hierarchy. [Delta] closes over the
   delta's own declarations only, unless it removes a class; a cold build
   of this model checks that both closures add the same placeholders in
   the same order. *)
let reference_model h ops =
  let r = Hierarchy.copy h in
  List.iter
    (function
      | Delta.Add_class d -> Hierarchy.add r d
      | Delta.Remove_class q -> Hierarchy.remove r q
      | Delta.Replace_class d -> Hierarchy.replace r d)
    ops;
  Hierarchy.ensure_closed r;
  r

(* Bit-for-bit reach equality: the node -> component map, and the closure
   bit of every (src, target) pair, which is bit [target] of src's
   component's closure — together every bit the index holds. Once the
   component maps agree, one source per component reads every closure.
   Structural, so physical reuse inside the patched index cannot skew it. *)
let reach_equal a b =
  let n = Reach.node_count a in
  let comp = Reach.components a in
  let seen = Array.make (Reach.scc_count a) false in
  Reach.node_count b = n
  && Reach.generation a = Reach.generation b
  && Reach.scc_count a = Reach.scc_count b
  && comp = Reach.components b
  && Seq.for_all
       (fun src ->
         seen.(comp.(src))
         || begin
              seen.(comp.(src)) <- true;
              Seq.for_all
                (fun target -> Reach.mem a ~src ~target = Reach.mem b ~src ~target)
                (Seq.init n Fun.id)
            end)
       (Seq.init n Fun.id)

let roundtrips h =
  let h' = Japi.Loader.load_files (Japi.Printer.print_files h) in
  let a = real_decls h and b = real_decls h' in
  List.length a = List.length b && List.for_all2 Decl.equal a b

(* Half the cases start from lanes with no spare tail, as
   [Graph.compact ~slack:0] leaves them, and draw only body-only ops: their
   splice cannot append in place and must refit into fresh lanes before
   its first write, leaving the input snapshot as it was. *)
let prop_patched_equals_cold =
  QCheck2.Test.make ~name:"patched frozen = cold-rebuilt frozen, lane for lane"
    ~count:60
    QCheck2.Gen.(pair world_gen bool)
    (fun ((seed, classes, nops), zero_slack) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let cold = freeze_cold h in
      let frozen = if zero_slack then Graph.compact ~slack:0 cold else cold in
      let rng = Rng.create ~seed:(seed lxor 0x5eed) in
      let ops = build_ops ~spliced:zero_slack rng h nops in
      match Delta.apply ~hierarchy:h ~frozen ops with
      | Error errs ->
          QCheck2.Test.fail_reportf "delta rejected: %s"
            (String.concat "; "
               (List.map (fun (e : Delta.error) -> e.Delta.reason) errs))
      | Ok patch ->
          Delta.frozen_equal patch.Delta.p_frozen (freeze_cold (reference_model h ops))
          && Graph.frozen_generation patch.Delta.p_frozen
             > Graph.frozen_generation frozen
          && roundtrips patch.Delta.p_hierarchy
          && ((not zero_slack)
             || (patch.Delta.p_mode = Delta.Spliced && Delta.frozen_equal frozen cold)))

(* Worlds with many strongly connected components, where a closure change
   must travel up the condensation: [Workload.layered_api] at 100–400
   classes has 39–51 components, [Workload.mega_api] 30 at 2k methods and
   101 at 10k. The Apigen worlds above have 3–8, and their random ops
   rarely change a closure bit at all. *)
let scc_worlds = Hashtbl.create 8

let scc_world key =
  match Hashtbl.find_opt scc_worlds key with
  | Some w -> w
  | None ->
      let h =
        match key with
        | `Layered classes -> Corpusgen.Workload.layered_api ~classes
        | `Mega methods -> Corpusgen.Workload.mega_api ~methods
      in
      let w = (h, Sig_graph.build h) in
      Hashtbl.add scc_worlds key w;
      w

(* The old index picks a class [c] and a type [t] that [c] cannot reach,
   where some predecessor [u] of [c] in another component cannot reach [t]
   either. Adding [c.zzJoin() : t] then gives [t] to the closures of [c]'s
   component and of [u]'s, which the delta never touches: a patch that
   re-closes only touched components, without following dirty successors
   up the condensation, keeps [u]'s stale closure. *)
let pick_join rng h frozen old =
  let decls = Array.of_list (real_decls h) in
  let node (d : Decl.t) = Graph.frozen_find_type_node frozen (Jtype.Ref d.Decl.dname) in
  let comp = Reach.components old in
  let upstream c t =
    let found = ref false in
    for k = frozen.Graph.f_bwd_off.{c} to frozen.Graph.f_bwd_end.{c} - 1 do
      let u = frozen.Graph.f_bwd_src.{k} in
      if comp.(u) <> comp.(c) && not (Reach.mem old ~src:u ~target:t) then
        found := true
    done;
    !found
  in
  let rec go tries =
    if tries = 0 then None
    else
      let d = decls.(Rng.int rng (Array.length decls)) in
      let target = decls.(Rng.int rng (Array.length decls)) in
      match (node d, node target) with
      | Some c, Some t when (not (Reach.mem old ~src:c ~target:t)) && upstream c t ->
          Some (d, target)
      | _ -> go (tries - 1)
  in
  go 10_000

(* The edit perfbench's reload-10k sends most: a class [c] gains a method
   that takes one reference parameter and returns a sink type [t]. Such
   edits accumulate, each adding a path into [t] from another class, so the
   base world carries earlier ones that widen [t]'s upstream cone towards
   half the nodes, and the delta is the next one, from a class that cannot
   reach [t] yet. Its edges c -> t and p -> t change the closures upstream
   of [c] and [p]; [t]'s wide cone is untouched. *)
let rec pick_sink ?(targets = 50) rng h frozen old =
  let decls = Array.of_list (real_decls h) in
  let draw () = decls.(Rng.int rng (Array.length decls)) in
  let node (d : Decl.t) =
    Option.get (Graph.frozen_find_type_node frozen (Jtype.Ref d.Decl.dname))
  in
  let n = frozen.Graph.f_nodes in
  let target = draw () in
  let t = node target in
  let sink_meth k =
    Member.meth (Printf.sprintf "zzSink%d" k)
      ~params:[ ("arg0", Jtype.Ref (draw ()).Decl.dname) ]
      ~ret:(Jtype.Ref target.Decl.dname)
  in
  let cone = Array.init n (fun x -> Reach.mem old ~src:x ~target:t) in
  let size = ref (Array.fold_left (fun a b -> if b then a + 1 else a) 0 cone) in
  let base = Hierarchy.copy h in
  let widening = ref 0 in
  for _ = 1 to 1_000 do
    let c = draw () in
    if !size < n / 2 && not cone.(node c) then begin
      Hierarchy.replace base (with_method (Hierarchy.find base c.Decl.dname) (sink_meth !widening));
      incr widening;
      for x = 0 to n - 1 do
        if (not cone.(x)) && Reach.mem old ~src:x ~target:(node c) then begin
          cone.(x) <- true;
          incr size
        end
      done
    end
  done;
  let widened = freeze_cold base in
  let widened_reach = Reach.build_frozen widened in
  let rec host tries =
    if tries = 0 then None
    else
      let c = draw () in
      if Reach.mem widened_reach ~src:(node c) ~target:t then host (tries - 1)
      else
        let c = Hierarchy.find base c.Decl.dname in
        Some
          ( base,
            widened,
            widened_reach,
            [ Delta.Replace_class (with_method c (sink_meth !widening)) ] )
  in
  (* the parameters' own cones join [t]'s too, so a sink can end up
     reached from every class; draw another *)
  match host 1_000 with
  | None when targets > 1 -> pick_sink ~targets:(targets - 1) rng h frozen old
  | found -> found

(* Removals: the base world carries a method [c.zzJoin() : t] for a type
   [t] that [c] cannot otherwise reach, and the delta drops it again. Without
   [split] nothing leads from [t] back to [c], so the removal cuts the only
   path from [c]'s component, and from everything upstream of it, to [t]:
   their closures shrink though no member reaches [t] after the delta. With
   [split], [t] reaches [c], so the method closed a cycle and its removal
   splits a strongly connected component. *)
let pick_removal ~split rng h frozen old =
  let decls = Array.of_list (real_decls h) in
  let draw () = decls.(Rng.int rng (Array.length decls)) in
  let node (d : Decl.t) = Graph.frozen_find_type_node frozen (Jtype.Ref d.Decl.dname) in
  let rec go tries =
    if tries = 0 then None
    else
      let d = draw () and target = draw () in
      match (node d, node target) with
      | Some c, Some t
        when (not (Reach.mem old ~src:c ~target:t))
             && Reach.mem old ~src:t ~target:c = split ->
          Some (d, target)
      | _ -> go (tries - 1)
  in
  go 100_000

let scc_key_gen =
  QCheck2.Gen.(
    pair
      (oneofl
         [ `Layered 100; `Layered 200; `Layered 300; `Layered 400; `Mega 2_000; `Mega 10_000 ])
      (int_range 1 1_000_000))

(* A reach case on a many-component world: the world, its snapshot and
   index, and a one-op delta. *)
let scc_case kind (key, seed) =
  let h, g = scc_world key in
  let frozen = Graph.freeze g in
  let old = Reach.build_frozen frozen in
  let rng = Rng.create ~seed in
  let none what = failwith ("no " ^ what ^ " in this world") in
  match kind with
  | `Join -> (
      match pick_join rng h frozen old with
      | None -> none "class with an unreachable type upstream"
      | Some (d, target) ->
          let m = Member.meth "zzJoin" ~params:[] ~ret:(Jtype.Ref target.Decl.dname) in
          (h, frozen, old, [ Delta.Replace_class (with_method d m) ]))
  | `Sink -> (
      match pick_sink rng h frozen old with
      | None -> none "class that cannot reach the sink"
      | Some case -> case)
  | `Remove split -> (
      match pick_removal ~split rng h frozen old with
      | None -> none "join to remove"
      | Some (d, target) ->
          let m = Member.meth "zzJoin" ~params:[] ~ret:(Jtype.Ref target.Decl.dname) in
          let joined = Hierarchy.copy h in
          Hierarchy.replace joined (with_method d m);
          let frozen = freeze_cold joined in
          (joined, frozen, Reach.build_frozen frozen, [ Delta.Replace_class d ]))

(* Random op sequences on the small Apigen worlds, and on a many-component
   world one method-addition join, one sink edit and one removal of each
   kind (above). *)
let reach_case_gen =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (seed, classes, nops) ->
            let h = Apigen.generate { Apigen.default_params with classes; seed } in
            let frozen = freeze_cold h in
            ( h,
              frozen,
              Reach.build_frozen frozen,
              build_ops (Rng.create ~seed:(seed lxor 0xcafe)) h nops ))
          world_gen;
        map (scc_case `Join) scc_key_gen;
        map (scc_case `Sink) scc_key_gen;
        map (scc_case (`Remove false)) scc_key_gen;
        map (scc_case (`Remove true)) scc_key_gen;
      ])

let prop_reach_patch_identity =
  QCheck2.Test.make ~name:"Reach.patch = Reach.build_frozen on the patched snapshot"
    ~count:100 reach_case_gen (fun (h, frozen, old, ops) ->
      match Delta.apply ~hierarchy:h ~frozen ops with
      | Error _ -> false
      | Ok patch ->
          let patched =
            Reach.patch ~old ~sources:patch.Delta.p_sources patch.Delta.p_frozen
          in
          reach_equal patched (Reach.build_frozen patch.Delta.p_frozen))

(* A lone method addition with already-interned types — a [Replace_class]
   of the declaration with the method appended — is the canonical
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
      match Delta.apply ~hierarchy:h ~frozen [ Delta.Replace_class (with_method d m) ] with
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

(* A mining service rebuilds the way the CLI's [serve] does: the startup
   corpus re-resolved against the patched API and spliced in. A delta that
   removes a class the corpus uses fails in that build; the reply is a
   bad_request, and the model is the one before the reload. *)
let test_service_rejects_unresolvable_corpus () =
  let module Service = Prospector_server.Service in
  let h = Japi.Loader.load_string "package p; class A { Object get(); } class B { }" in
  let corpus =
    [ ("c.java", "package c; class U { B use(A a) { B b = (B) a.get(); return b; } }") ]
  in
  let enriched h =
    let g = Sig_graph.build h in
    ignore (Mining.Enrich.enrich g (Minijava.Resolve.parse_program ~api:h corpus));
    g
  in
  let rebuild h =
    let g = enriched h in
    ignore (Graph.void_node g);
    Graph.freeze g
  in
  let svc =
    Service.create ~rebuild ~engine:(Query.engine ~graph:(enriched h) ~hierarchy:h ()) ()
  in
  let query () = Service.handle_line svc {|{"op": "query", "tin": "p.A", "tout": "p.B"}|} in
  let before = query () in
  Alcotest.(check bool) ("the mined downcast answers: " ^ before) true
    (contains before "((B) x.get())");
  let r = Service.handle_line svc {|{"op": "reload", "remove": ["p.A"]}|} in
  Alcotest.(check bool) ("a bad_request: " ^ r) true
    (contains r "\"bad_request\"" && contains r "the mined corpus no longer resolves");
  Alcotest.(check string) "the model is unchanged" before (query ())

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
    | Delta.Remove_class q -> q
  in
  let rets (d : Decl.t) = List.map (fun (m : Member.meth) -> m.Member.ret) d.Decl.methods in
  let before = match Hierarchy.find_opt h name with Some d -> rets d | None -> [] in
  let after =
    match op with
    | Delta.Add_class d | Delta.Replace_class d -> rets d
    | Delta.Remove_class _ -> []
  in
  List.map (fun tout -> { Query.tin = Jtype.Ref name; tout }) (before @ after)

(* Warm the engine's cache, then apply the ops one reload at a time: after
   each, every cached answer must equal the uncached pipeline's on the
   engine's own snapshot, index and hierarchy. An entry that survived a
   reload it should not have serves the old world's answer and fails
   this. *)
let prop_engine_caches_follow_reloads =
  QCheck2.Test.make ~name:"caches agree after every reload"
    ~count:40 world_gen (fun (seed, classes, nops) ->
      let h = Apigen.generate { Apigen.default_params with classes; seed } in
      let e = Query.engine ~graph:(Sig_graph.build h) ~hierarchy:h () in
      let ops = build_ops (Rng.create ~seed:(seed lxor 0xcac4e)) h nops in
      let qs = List.sort_uniq compare (List.concat_map (edit_queries h) ops) in
      let agree () =
        let frozen = Query.engine_frozen e and reach = Query.engine_reach e in
        let hierarchy = Query.engine_hierarchy e in
        List.for_all
          (fun q ->
            Query.run_batch e [ q ] = [ (q, Query.run ~frozen ?reach ~hierarchy q) ])
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
            Alcotest.test_case "a delta the mined corpus cannot resolve is rejected" `Quick
              test_service_rejects_unresolvable_corpus;
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
