(* The traced run: the same seeded inputs, replayed in-process with a span
   around every call into one of the program's public functions, so each
   end-to-end figure breaks down into the layers that produce it. Spans are
   recorded from the benchmark's own code; nothing inside the program is
   instrumented.

   For a query the benchmark makes, in order, the calls [Query.run_info]
   makes on a CSR snapshot — type resolution, the reach verdict and cone,
   the distance lanes, best-first enumeration, dedup, rank keys, codegen —
   and assembles the answer itself. That answer must equal the program's
   own answer for the same request, or the breakdown would describe a
   different program. *)

module Query = Prospector.Query
module Graph = Prospector.Graph
module Reach = Prospector.Reach
module Search = Prospector.Search
module Topk = Prospector.Topk
module Jungloid = Prospector.Jungloid
module Rank = Prospector.Rank
module Codegen = Prospector.Codegen
module Shard = Prospector.Shard
module Delta = Prospector.Delta
module Hierarchy = Javamodel.Hierarchy
module Service = Prospector_server.Service
module Proto = Prospector_server.Proto
module Pool = Prospector_parallel.Pool

(* Counts made at the same boundaries as the spans. *)
type counts = {
  mutable queries : int;  (** engine queries decomposed *)
  mutable edges : int;  (** successor edges Topk was handed *)
  mutable materialized : int;
  mutable results : int;
  mutable truncated : int;
  mutable unsolvable : int;  (** per the full reach index *)
  mutable rejected : int;  (** of those, rejected by [Reach.mem] *)
  mutable cones : int;
  mutable cone_fraction : float;  (** summed over [cones] *)
  mutable misses : int;  (** batch queries that needed solving *)
  mutable routed : int;  (** of those, sent to a shard sub-snapshot *)
  mutable reply_bytes : int;  (** summed over daemon replies *)
}

let counts () =
  {
    queries = 0; edges = 0; materialized = 0; results = 0; truncated = 0;
    unsolvable = 0; rejected = 0; cones = 0; cone_fraction = 0.; misses = 0; routed = 0;
    reply_bytes = 0;
  }

(* ---------- the decomposed query ---------- *)

(* [Query.run_info ~frozen ?reach] under the default settings (best-first,
   paper ranking, no protocol, no verifier), one public call per span. *)
let query tr c ?reach ~frozen ~hierarchy (q : Query.t) =
  let s = Query.default_settings in
  let scratch = Search.Scratch.domain () in
  c.queries <- c.queries + 1;
  Search.Scratch.with_frame scratch (fun () ->
      let src, dst =
        Trace.span tr "graph.resolve" (fun () ->
            ( Graph.frozen_find_type_node frozen q.Query.tin,
              Graph.frozen_find_type_node frozen q.Query.tout ))
      in
      match (src, dst) with
      | Some src, Some dst -> (
          let reach =
            match reach with
            | Some r when Reach.generation r = Graph.frozen_generation frozen -> Some r
            | _ -> None
          in
          let rejected, cone =
            Trace.span tr "reach.probe" (fun () ->
                match reach with
                | None -> (false, None)
                | Some r ->
                    let cone =
                      match Reach.cone r ~target:dst with
                      | None -> None
                      | Some (cn, size) ->
                          let n = Reach.node_count r in
                          c.cones <- c.cones + 1;
                          c.cone_fraction <- c.cone_fraction +. (float_of_int size /. float_of_int n);
                          if float_of_int size <= 0.75 *. float_of_int n then Some cn else None
                    in
                    (not (Reach.mem r ~src ~target:dst), cone))
          in
          if rejected then begin
            c.rejected <- c.rejected + 1;
            ([], false)
          end
          else
            let dist_to =
              Trace.span tr "search.dist" (fun () ->
                  Search.Csr.distances_to ~scratch ?cone frozen ~target:dst)
            in
            let dsrc = Search.Dist.get dist_to src in
            if dsrc = max_int then ([], false)
            else
              Trace.span tr "topk" (fun () ->
                  let off = frozen.Graph.f_fwd_off and fin = frozen.Graph.f_fwd_end in
                  let iter_succs u f =
                    for k = off.{u} to fin.{u} - 1 do
                      c.edges <- c.edges + 1;
                      f k frozen.Graph.f_fwd_edge.(k)
                    done
                  in
                  let st =
                    Topk.start ~memo:(Topk.Memo.domain ()) ~weights:s.Query.weights ~hierarchy
                      ~node_type:(Graph.frozen_node_type frozen) ~iter_succs
                      ~edge_slots:(Array.length frozen.Graph.f_fwd_edge)
                      ~materialize:(fun p ->
                        Trace.span tr "jungloid.materialize" (fun () ->
                            Jungloid.of_frozen_path frozen p))
                      ~dist_to ~sources:[ (src, dsrc + s.Query.slack) ] ~target:dst
                      ~limit:s.Query.limit ()
                  in
                  let seen = Hashtbl.create 32 in
                  let rec take acc n =
                    if n = s.Query.max_results then List.rev acc
                    else
                      match Topk.next st with
                      | None -> List.rev acc
                      | Some cand ->
                          let j = cand.Topk.cand_jungloid in
                          let fresh =
                            Trace.span tr "jungloid.dedup" (fun () ->
                                let e = Jungloid.to_expression j in
                                if Hashtbl.mem seen e then false
                                else (Hashtbl.replace seen e (); true))
                          in
                          if not fresh then take acc n
                          else
                            let key =
                              Trace.span tr "rank.key" (fun () ->
                                  Rank.key ~weights:s.Query.weights hierarchy j)
                            in
                            let code = Trace.span tr "codegen" (fun () -> Codegen.to_java j) in
                            take ({ Query.jungloid = j; key; code } :: acc) (n + 1)
                  in
                  let rs = take [] 0 in
                  c.materialized <- c.materialized + Topk.materialized st;
                  c.results <- c.results + List.length rs;
                  if Topk.truncated st then c.truncated <- c.truncated + 1;
                  (rs, Topk.truncated st)))
      | _ -> ([], false))

(* ---------- set-up ---------- *)

(* The serving set-up, one public call per span: parse and resolve the
   [.japi] text, build the signature graph, mine the corpus (bundled model
   only), freeze with the void node interned first, build the reach index,
   warm the hierarchy's memos. *)
let setup tr ~files ~corpus =
  let hierarchy = Trace.span tr "japi.load" (fun () -> Japi.Loader.load_files files) in
  let graph = Trace.span tr "sig_graph.build" (fun () -> Prospector.Sig_graph.build hierarchy) in
  let usage, proto =
    match corpus with
    | [] -> (None, None)
    | srcs -> Trace.span tr "mining.enrich" (fun () -> Model.mine ~hierarchy graph srcs)
  in
  let m = { Model.hierarchy; graph; usage; proto } in
  let frozen =
    Trace.span tr "graph.freeze" (fun () ->
        ignore (Graph.void_node graph);
        Graph.freeze ?wcost:(Model.edge_cost m) graph)
  in
  let reach = Trace.span tr "reach.build" (fun () -> Reach.build_frozen frozen) in
  Trace.span tr "hierarchy.warm" (fun () -> Hierarchy.warm hierarchy);
  (m, frozen, reach)

(* ---------- what a run reports ---------- *)

type run = {
  tr : Trace.t;
  c : counts;
  mutable untraced : float;  (** program's own time for the replayed work *)
  mutable traced : float;  (** the same work decomposed, spans on *)
  mutable busy : float;  (** batch: summed per-query solve time *)
  mutable pool_wall : float;  (** batch: jobs x run_batch wall time *)
  mutable waits : float list;  (** daemon: per-request wait, seconds *)
  mutable hit_ratio : float;
  mutable evictions : float;
}

let create () =
  {
    tr = Trace.create (); c = counts (); untraced = 0.; traced = 0.; busy = 0.; pool_wall = 0.;
    waits = []; hit_ratio = 0.; evictions = 0.;
  }

(* Every per-layer metric, in BENCHMARK.json order. A layer the workload
   never calls reports 0. *)
let metrics out r ~roots =
  let tot = Trace.totals r.tr in
  let get name = Hashtbl.find_opt tot name in
  let dur name = match get name with Some t -> t.Trace.dur | None -> 0. in
  let per ?(scale = 1e6) name ~over =
    if over = 0 then 0. else dur name *. scale /. float_of_int over
  in
  let count name = match get name with Some t -> t.Trace.count | None -> 0 in
  let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let c = r.c in
  let q = c.queries in
  let m name v unit = Outcome.metric out name v unit in
  m "japi.load_s" (dur "japi.load") "s";
  m "sig_graph.build_s" (dur "sig_graph.build") "s";
  m "graph.freeze_s" (dur "graph.freeze") "s";
  m "reach.build_s" (dur "reach.build") "s";
  m "hierarchy.warm_s" (dur "hierarchy.warm") "s";
  m "mining.enrich_s" (dur "mining.enrich") "s";
  m "shard.plan_s" (dur "shard.plan") "s";
  m "graph.resolve_us" (per "graph.resolve" ~over:(count "graph.resolve")) "us";
  m "reach.probe_us" (per "reach.probe" ~over:(count "reach.probe")) "us";
  m "reach.reject_share" (share c.rejected c.unsolvable) "share";
  m "reach.cone_fraction" (if c.cones = 0 then 0. else c.cone_fraction /. float_of_int c.cones) "share";
  m "search.dist_us" (per "search.dist" ~over:(count "search.dist")) "us";
  let topk_n = count "topk" in
  m "topk.self_us"
    (match get "topk" with
    | Some t when topk_n > 0 -> t.Trace.self *. 1e6 /. float_of_int topk_n
    | _ -> 0.)
    "us";
  m "topk.edges" (share c.edges topk_n) "count";
  m "topk.materialized" (share c.materialized topk_n) "count";
  m "topk.yield" (share c.results c.materialized) "share";
  m "topk.truncated_share" (share c.truncated topk_n) "share";
  m "jungloid.materialize_us" (per "jungloid.materialize" ~over:q) "us";
  m "jungloid.dedup_us" (per "jungloid.dedup" ~over:q) "us";
  m "rank.key_us" (per "rank.key" ~over:q) "us";
  m "codegen.us" (per "codegen" ~over:q) "us";
  m "assist.us" (per "assist" ~over:(count "assist")) "us";
  let reqs = count "service.handle" in
  m "proto.decode_us" (per "proto.decode" ~over:reqs) "us";
  m "proto.encode_us" (per "proto.encode" ~over:reqs) "us";
  m "proto.reply_bytes"
    (share c.reply_bytes reqs)
    "bytes";
  m "service.handle_us" (per "service.handle" ~over:reqs) "us";
  m "server.wait_us"
    (match r.waits with [] -> 0. | w -> Summary.median (Array.of_list w) *. 1e6)
    "us";
  m "qcache.hit_ratio" r.hit_ratio "share";
  m "qcache.evictions" r.evictions "count";
  let deltas = count "delta.apply" in
  m "delta.parse_us" (per "delta.parse" ~over:(count "delta.parse")) "us";
  m "delta.apply_ms" (per ~scale:1e3 "delta.apply" ~over:deltas) "ms";
  m "delta.spliced_share" (share (deltas - count "delta.rebuild") deltas) "share";
  m "query.engine_reload_ms" (per ~scale:1e3 "query.engine_reload" ~over:deltas) "ms";
  m "hierarchy.warm_ms" (per ~scale:1e3 "hierarchy.rewarm" ~over:deltas) "ms";
  m "delta.rebuild_ms"
    (let n = count "delta.rebuild" in
     if n = 0 then 0. else (dur "delta.rebuild" +. dur "delta.rebuild_reach") *. 1e3 /. float_of_int n)
    "ms";
  m "shard.routed_share" (share c.routed c.misses) "share";
  m "shard.sub_s" (dur "shard.sub") "s";
  m "pool.busy_share" (if r.pool_wall = 0. then 0. else r.busy /. r.pool_wall) "share";
  let whole, inside =
    List.fold_left
      (fun (w, i) root ->
        let w', i' = Trace.coverage r.tr ~root in
        (w +. w', i +. i'))
      (0., 0.) roots
  in
  m "trace.coverage" (if whole = 0. then 0. else inside /. whole) "share";
  m "trace.overhead" (if r.untraced = 0. then 0. else (r.traced /. r.untraced) -. 1.) "share"

(* ---------- batch-100k ---------- *)

(* The batch path, query by query: route the target to its package shard as
   [Query.run_batch] does (forcing the shard on first use), then run the
   decomposed query there — without the reach index on a shard, with it on
   the whole snapshot. Each chunk is also answered by [Query.run_batch]
   itself (the program's answer, and the pool's wall time) and by a plain
   [Query.run] per query (the untraced solve time). *)
let batch out ~seed ~seconds =
  let r = create () in
  let tr = r.tr and c = r.c in
  let inputs, _ = Workloads.batch_inputs ~seed in
  Gc.compact ();
  let jobs = Provenance.nproc () in
  let m, frozen, reach = setup tr ~files:inputs.Inputs.b_world ~corpus:[] in
  let pool = Pool.create ~jobs in
  let e =
    Query.engine_of_frozen ~cache_capacity:256 ~reach ~pool ~frozen ~hierarchy:m.Model.hierarchy ()
  in
  let shards = Trace.span tr "shard.plan" (fun () -> Query.engine_shards e) in
  let hierarchy = m.Model.hierarchy in
  let unsolvable (q : Query.t) =
    match
      (Graph.frozen_find_type_node frozen q.Query.tin, Graph.frozen_find_type_node frozen q.Query.tout)
    with
    | Some s, Some d -> not (Reach.mem reach ~src:s ~target:d)
    | _ -> false
  in
  let route ~traced (q : Query.t) =
    let span name f = if traced then Trace.span tr name f else f () in
    match shards with
    | None -> None
    | Some sh -> (
        match
          span "shard.route" (fun () ->
              match Graph.frozen_find_type_node frozen q.Query.tout with
              | None -> None
              | Some dst -> Shard.route sh ~target:dst)
        with
        | None -> None
        | Some g -> span "shard.sub" (fun () -> Shard.sub sh g))
  in
  let qs = Array.map (fun (a, b) -> Query.query a b) inputs.Inputs.b_queries in
  let t0 = Clock.now () in
  let next = ref 0 in
  while Clock.now () -. t0 < seconds && !next + Workloads.batch_size <= Array.length qs do
    let chunk = Array.to_list (Array.sub qs !next Workloads.batch_size) in
    let decomposed =
      List.mapi
        (fun k q ->
          Trace.set_request tr (!next + k);
          if unsolvable q then c.unsolvable <- c.unsolvable + 1;
          c.misses <- c.misses + 1;
          let rs, _ =
            Trace.span tr "query" (fun () ->
                match route ~traced:true q with
                | Some sub ->
                    c.routed <- c.routed + 1;
                    query tr c ~frozen:sub ~hierarchy q
                | None -> query tr c ~reach ~frozen ~hierarchy q)
          in
          rs)
        chunk
    in
    Trace.set_request tr (-1);
    (* untraced: the program's own single-query call on the same snapshot *)
    List.iter
      (fun q ->
        let dt, _ =
          Clock.time (fun () ->
              match route ~traced:false q with
              | Some sub -> Query.run ~frozen:sub ~hierarchy q
              | None -> Query.run ~reach ~frozen ~hierarchy q)
        in
        r.untraced <- r.untraced +. dt;
        r.busy <- r.busy +. dt)
      chunk;
    let wall, program = Clock.time (fun () -> Query.run_batch e chunk) in
    r.pool_wall <- r.pool_wall +. (float_of_int jobs *. wall);
    List.iteri
      (fun k ((q : Query.t), rs) ->
        let want = Proto.to_string (Oracle.results_json rs) in
        let got = Proto.to_string (Oracle.results_json (List.nth decomposed k)) in
        Outcome.check out (got = want) ~what:(fun () ->
            Printf.sprintf "decomposed answer differs from run_batch for (%s, %s)"
              (Javamodel.Jtype.to_string q.Query.tin) (Javamodel.Jtype.to_string q.Query.tout)))
      program;
    next := !next + Workloads.batch_size
  done;
  (* the batch engine's own result cache: every pair is distinct, so it
     only ever misses and evicts *)
  let st = Query.engine_stats e in
  r.hit_ratio <- Prospector.Qcache.hit_rate st;
  r.evictions <- float_of_int st.Prospector.Qcache.s_evictions;
  (* forcing a shard happens once, in the traced pass; it is left out of
     the traced-versus-untraced comparison *)
  let tot = Trace.totals tr in
  let dur n = match Hashtbl.find_opt tot n with Some t -> t.Trace.dur | None -> 0. in
  r.traced <- dur "query" -. dur "shard.sub";
  Outcome.line out "  traced %d queries (%d routed to shards) over %.1f s, %d spans" c.queries
    c.routed (Clock.now () -. t0) (Trace.length tr);
  (r, [ "query" ])

(* ---------- daemon workloads ---------- *)

(* The untraced live run: the daemon as a process, the stream over loopback
   with one connection per lane, so a lane's requests meet one worker and
   one worker cache — exactly the sequence the in-process replay sees.
   Returns each arrival's client latency (send to reply, seconds; nan if
   none) and the daemon's cache counters. *)
let live out ~work ~args ~lanes (phases : Inputs.phase list) =
  let p, _, _ = Wire.spawn_server ~work ~tag:"live" args in
  let conns = Array.init lanes (fun _ -> Wire.connect p.Wire.port) in
  let client =
    Array.concat
      (List.map
         (fun ph ->
           let o = Wire.run_phase (Array.map (fun fd -> [| fd |]) conns) ph in
           Array.mapi (fun i s -> o.Wire.received.(i) -. s) o.Wire.sent)
         phases)
  in
  let ratio, evictions = Workloads.stats_line out conns.(0) in
  Array.iter Unix.close conns;
  if not (Wire.stop p) then Outcome.fail out "daemon did not drain cleanly";
  (client, ratio, float_of_int evictions)

(* A reload the way the daemon's reload op performs it, one public call per
   span: parse the inline [.japi], turn it into add/replace ops, apply the
   delta, rebuild cold when it cannot be spliced, swap the patch into the
   engine, re-warm the hierarchy, publish the snapshot. *)
let reload tr ~model e text =
  Trace.span tr "reload" (fun () ->
      let dh =
        Trace.span tr "delta.parse" (fun () -> Japi.Loader.load_string ~file:"<reload>" text)
      in
      let h = Query.engine_hierarchy e in
      let ops =
        List.rev
          (Hierarchy.fold dh ~init:[] ~f:(fun acc (d : Javamodel.Decl.t) ->
               if Javamodel.Qname.equal d.Javamodel.Decl.dname Javamodel.Qname.object_qname then acc
               else if Hierarchy.mem h d.Javamodel.Decl.dname then
                 if d.Javamodel.Decl.synthetic then acc else Delta.Replace_class d :: acc
               else Delta.Add_class d :: acc))
      in
      match
        Trace.span tr "delta.apply" (fun () ->
            Delta.apply ~wcost:Graph.default_wcost ~hierarchy:h ~frozen:(Query.engine_frozen e) ops)
      with
      | Error _ -> None
      | Ok patch ->
          let patch =
            if patch.Delta.p_mode = Delta.Rebuilt then
              let fz = Trace.span tr "delta.rebuild" (fun () -> Model.rebuild model patch.Delta.p_hierarchy) in
              {
                patch with
                Delta.p_frozen =
                  { fz with Graph.f_generation = Graph.frozen_generation patch.Delta.p_frozen };
              }
            else patch
          in
          Trace.span tr "query.engine_reload" (fun () -> Query.engine_reload e patch);
          Trace.span tr "hierarchy.rewarm" (fun () -> Hierarchy.warm (Query.engine_hierarchy e));
          (* publishing the snapshot forces the reach index: patched in
             place above after a splice, built cold here after a rebuild *)
          if patch.Delta.p_mode = Delta.Rebuilt then
            Trace.span tr "delta.rebuild_reach" (fun () -> ignore (Query.engine_reach e))
          else ignore (Query.engine_reach e);
          Some patch.Delta.p_mode)

let reply_mode reply =
  match Proto.parse reply with
  | Ok j -> ( match Proto.member "mode" j with Some (Proto.Str s) -> s | _ -> "")
  | Error _ -> ""

(* Replay [arrivals] in-process three ways: the program's full wire cycle
   untraced ([Service.handle_line]), the same cycle traced as decode,
   handle and encode spans, and — for each read the worker cache misses,
   and each reload — the decomposed engine calls, whose answer must equal
   the program's. Every traced root is timed against the same work done by
   the program's own untraced call: the wire cycle against [handle_line],
   a decomposed miss against [Query.run_info] or [Assist.suggest] on the
   same snapshot, a decomposed reload against the reload op. *)
let replay out r ~model ~reads ~(deltas : Inputs.delta array) ~client (arrivals : Inputs.arrival array) =
  let tr = r.tr and c = r.c in
  let svc_a = Model.service model and svc_b = Model.service model in
  let la = Service.local svc_a and lb = Service.local svc_b in
  let decomposed = Model.serve_engine model in
  (* as Service.create does: the first snapshot carries a reach index *)
  ignore (Query.engine_reach decomposed);
  let mirror = Prospector.Qcache.create ~capacity:256 () in
  Array.iteri
    (fun i (a : Inputs.arrival) ->
      if a.Inputs.read >= 0 then begin
        (* the two passes alternate which goes first, so neither is always
           the one that finds the caches warm *)
        let untraced () =
          let dt, _ = Clock.time (fun () -> Service.handle_line ~local:la svc_a a.Inputs.line) in
          r.untraced <- r.untraced +. dt
        in
        if i mod 2 = 0 then untraced ();
        Trace.set_request tr i;
        let root = Trace.length tr in
        let reply =
          Trace.span tr "request" (fun () ->
              let env =
                Trace.span tr "proto.decode" (fun () ->
                    match Proto.parse a.Inputs.line with
                    | Ok j -> Proto.request_of_json j
                    | Error e -> Error e)
              in
              let env = match env with Ok e -> e | Error e -> failwith e in
              let resp = Trace.span tr "service.handle" (fun () -> Service.handle ~local:lb svc_b env) in
              Trace.span tr "proto.encode" (fun () -> Proto.to_string resp))
        in
        if i mod 2 = 1 then untraced ();
        r.traced <- r.traced +. Trace.duration tr root;
        c.reply_bytes <- c.reply_bytes + String.length reply;
        if Float.is_finite client.(i) then
          r.waits <- (client.(i) -. Trace.children_time tr root) :: r.waits;
        let e = Service.engine svc_b in
        let key = (a.Inputs.read, Graph.frozen_generation (Query.engine_frozen e)) in
        if Prospector.Qcache.find mirror key = None then begin
          Prospector.Qcache.add mirror key ();
          let frozen = Query.engine_frozen e and reach = Query.engine_reach e in
          let hierarchy = Query.engine_hierarchy e in
          let read = reads.(a.Inputs.read) in
          (match (read, reach) with
          | Inputs.Query { tin; tout }, Some rc -> (
              let q = Query.query tin tout in
              match (Graph.frozen_find_type_node frozen q.Query.tin,
                     Graph.frozen_find_type_node frozen q.Query.tout) with
              | Some s, Some d when not (Reach.mem rc ~src:s ~target:d) ->
                  c.unsolvable <- c.unsolvable + 1
              | _ -> ())
          | _ -> ());
          (* the program's own call on the same snapshot, untraced, against
             the decomposed calls below; again the two alternate *)
          let program () =
            let dt, _ =
              Clock.time (fun () ->
                  match read with
                  | Inputs.Query { tin; tout } ->
                      let rs, info = Query.run_info ?reach ~frozen ~hierarchy (Query.query tin tout) in
                      Oracle.query_reply rs ~truncated:info.Query.truncated
                  | Inputs.Assist { tout; vars } ->
                      Oracle.assist_reply
                        (Prospector.Assist.suggest ~frozen ?reach ~hierarchy
                           (Oracle.context ~tout ~vars)))
            in
            r.untraced <- r.untraced +. dt
          in
          if i mod 2 = 0 then program ();
          let root = Trace.length tr in
          let json =
            Trace.span tr "engine" (fun () ->
                match read with
                | Inputs.Query { tin; tout } ->
                    let rs, truncated = query tr c ?reach ~frozen ~hierarchy (Query.query tin tout) in
                    Oracle.query_reply rs ~truncated
                | Inputs.Assist { tout; vars } ->
                    Oracle.assist_reply
                      (Trace.span tr "assist" (fun () ->
                           Prospector.Assist.suggest ~frozen ?reach ~hierarchy
                             (Oracle.context ~tout ~vars))))
          in
          if i mod 2 = 1 then program ();
          r.traced <- r.traced +. Trace.duration tr root;
          Outcome.check out (Oracle.body (Proto.to_string json) = Oracle.body reply)
            ~what:(fun () -> Printf.sprintf "decomposed answer differs from the daemon's for %s" a.Inputs.line)
        end
      end
      else begin
        (* the program's own reload untraced against the decomposed one,
           alternating which goes first *)
        let untraced () =
          let dt, _ = Clock.time (fun () -> Service.handle_line svc_a a.Inputs.line) in
          r.untraced <- r.untraced +. dt
        in
        let reply = Service.handle_line svc_b a.Inputs.line in
        if a.Inputs.delta mod 2 = 0 then untraced ();
        Trace.set_request tr i;
        let root = Trace.length tr in
        let mode = reload tr ~model decomposed deltas.(a.Inputs.delta).Inputs.japi in
        if a.Inputs.delta mod 2 = 1 then untraced ();
        r.traced <- r.traced +. Trace.duration tr root;
        let same =
          (match mode with Some md -> Delta.mode_string md = reply_mode reply | None -> false)
          && Delta.frozen_equal (Query.engine_frozen decomposed)
               (Query.engine_frozen (Service.engine svc_b))
        in
        Outcome.check out same ~what:(fun () ->
            Printf.sprintf "decomposed reload %d differs from the daemon's" a.Inputs.delta)
      end)
    arrivals;
  Trace.set_request tr (-1);
  decomposed

(* The live run, then the in-process replay of the same arrivals. Returns
   the engine the decomposed reloads were applied to. *)
let daemon out r ~work ~args ~lanes ~model ~reads ~deltas phases =
  let client, hit_ratio, evictions = live out ~work ~args ~lanes phases in
  r.hit_ratio <- hit_ratio;
  r.evictions <- evictions;
  let arrivals = Array.concat (List.map (fun (p : Inputs.phase) -> p.Inputs.arrivals) phases) in
  let t, decomposed =
    Clock.time (fun () -> replay out r ~model ~reads ~deltas ~client arrivals)
  in
  Outcome.line out
    "  replayed %d requests in-process (%d engine queries, %d reloads) in %.1f s, %d spans"
    (Array.length arrivals) r.c.queries (Array.length deltas) t (Trace.length r.tr);
  decomposed

let ide out ~work ~seed ~seconds =
  let r = create () in
  let inputs = Workloads.ide_inputs ~seed ~seconds (Model.bundled ()) in
  let model, _, _ =
    setup r.tr ~files:Apidata.Api.api_sources ~corpus:Apidata.Api.corpus_sources
  in
  (* the warm-up and the fixed-rate phase; the capacity ladder is not
     replayed *)
  let phases = List.filter (fun p -> not (Workloads.is_rung p)) inputs.Inputs.ide_phases in
  ignore
    (daemon out r ~work ~args:[] ~lanes:1 ~model ~reads:inputs.Inputs.ide_reads ~deltas:[||]
       phases);
  (r, [ "request"; "engine" ])

let reload_run out ~work ~seed ~seconds =
  let r = create () in
  let inputs, _ = Workloads.reload_inputs ~seed ~seconds in
  let model, _, _ = setup r.tr ~files:inputs.Inputs.r_world ~corpus:[] in
  let files = Workloads.write_files (Filename.concat work "world") inputs.Inputs.r_world in
  let decomposed =
    daemon out r ~work
      ~args:(List.concat_map (fun f -> [ "--api"; f ]) files)
      ~lanes:2 ~model ~reads:inputs.Inputs.r_reads ~deltas:inputs.Inputs.r_deltas
      inputs.Inputs.r_phases
  in
  let cold = Model.rebuild model (Query.engine_hierarchy decomposed) in
  if not (Delta.frozen_equal (Query.engine_frozen decomposed) cold) then
    Outcome.fail out "final reloaded snapshot differs from a cold rebuild of its hierarchy";
  (r, [ "request"; "engine"; "reload" ])

(* Run the traced variant of a workload and report every per-layer metric;
   the spans are written next to the run's other files. *)
let run ~workload ~work ~seed ~seconds =
  let out = Outcome.create () in
  let r, roots =
    match workload with
    | "ide-bundled" -> ide out ~work ~seed ~seconds
    | "batch-100k" -> batch out ~seed ~seconds
    | _ -> reload_run out ~work ~seed ~seconds
  in
  let path = Filename.concat work "spans.tsv" in
  Trace.write r.tr path;
  Outcome.line out "  spans written to %s" path;
  metrics out r ~roots;
  out
