let log_src = Logs.Src.create "prospector.query" ~doc:"jungloid queries"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Pool = Prospector_parallel.Pool

type t = {
  tin : Jtype.t;
  tout : Jtype.t;
}

let parse_type s =
  let s = String.trim s in
  let rec strip s dims =
    if String.length s > 2 && String.sub s (String.length s - 2) 2 = "[]" then
      strip (String.sub s 0 (String.length s - 2)) (dims + 1)
    else (s, dims)
  in
  let base, dims = strip s 0 in
  let base_t =
    if base = "void" then Jtype.Void
    else
      match Jtype.prim_of_string base with
      | Some p -> Jtype.Prim p
      | None -> Jtype.ref_of_string base
  in
  let rec wrap ty n = if n = 0 then ty else wrap (Jtype.Array ty) (n - 1) in
  wrap base_t dims

let query tin tout = { tin = parse_type tin; tout = parse_type tout }

(* Where the rank-ordered candidates come from (see [execute]). [BestFirst]
   pops a rank-ordered heap of path prefixes (see [Topk]) and stops once
   [max_results] distinct solutions are certified, without materializing
   thousands of also-rans. [Exhaustive] enumerates and sorts the whole
   within-budget path set, which corpus tooling wants anyway. *)
type strategy =
  | Exhaustive
  | BestFirst

let strategy_to_string = function
  | Exhaustive -> "exhaustive"
  | BestFirst -> "best-first"

let strategy_of_string = function
  | "exhaustive" -> Ok Exhaustive
  | "best-first" -> Ok BestFirst
  | s ->
      Error
        (Printf.sprintf "unknown strategy %S (expected \"best-first\" or \"exhaustive\")"
           s)

(* Both fields arrive from outside the program (wire requests, CLI flags);
   a negative one would crash [Seq.take] or silently empty the budget, so
   it is rejected before any engine work. *)
let check_limits ~max_results ~slack =
  if max_results < 0 then
    Error (Printf.sprintf "max_results must be non-negative (got %d)" max_results)
  else if slack < 0 then
    Error (Printf.sprintf "slack must be non-negative (got %d)" slack)
  else Ok ()

let check_type_name ~what name =
  if String.trim name = "" then
    Error (Printf.sprintf "%s must name a type (got %S)" what name)
  else Ok ()

type settings = {
  slack : int;
  limit : int;
  max_results : int;
  weights : Rank.weights;
  estimate_freevars : bool;
  strategy : strategy;
}

let default_settings =
  {
    slack = 1;
    limit = 4096;
    max_results = 10;
    weights = Rank.default_weights;
    estimate_freevars = false;
    strategy = BestFirst;
  }

(* A negative free-variable cost would make the best-first priority
   non-monotone (prefixes could get cheaper as they grow), voiding the
   order certificate; such ablation configurations fall back to the
   exhaustive strategy, and the fallback is reported in [info.warnings] so
   callers are never silently served by a different configuration than
   they asked for. *)
let effective_mode settings =
  if settings.weights.Rank.freevar_cost < 0 && settings.strategy = BestFirst then begin
    let w =
      "negative freevar_cost voids the best-first order certificate; falling back to the exhaustive strategy"
    in
    Log.warn (fun m -> m "%s" w);
    (Exhaustive, [ w ])
  end
  else (settings.strategy, [])

(* The query-time snapshot of a builder graph; an engine keeps one. The
   void pseudo-node is interned first so every snapshot can serve the
   multi-source (content-assist) path; [Sig_graph.build] already interns
   it, so freezing a built graph never moves its generation. *)
let freeze graph =
  ignore (Graph.void_node graph);
  Graph.freeze graph

(* The future-work free-variable estimator: a free variable of type T will
   cost about as much as the cheapest way to conjure a T from nothing (the
   void query the user would run next). Unreachable types keep the constant
   estimate. *)
let freevar_estimator ?scratch ~settings fz =
  if not settings.estimate_freevars then None
  else
    match Graph.frozen_void_node fz with
    | None -> Some (fun _ -> settings.weights.Rank.freevar_cost)
    | Some void ->
        let dist = Search.Csr.distances_from ?scratch fz ~sources:[ void ] in
        Some
          (fun ty ->
            match Graph.frozen_find_type_node fz ty with
            | Some n ->
                let d = Search.Dist.get dist n in
                if d < max_int then max 1 d
                else settings.weights.Rank.freevar_cost
            | None -> settings.weights.Rank.freevar_cost)

type result = {
  jungloid : Jungloid.t;
  key : Rank.key;
  code : string;
}

type multi_result = {
  source_var : string option;
  result : result;
}

(* A reach index only rejects inputs when it describes the snapshot the
   query reads: the generation captured at freeze time. Anything stale
   (engine callers never produce this, manual callers might) is ignored
   rather than risked. *)
let current_reach ~gen reach =
  match reach with Some r when Reach.generation r = gen -> Some r | _ -> None

(* Per-query execution report: how many candidates the search materialized
   into jungloids (the laziness metric) and whether it stopped at
   [settings.limit] — the signal the CLI and server surface so a clipped
   result set is never mistaken for a complete one. *)
type info = {
  candidates : int;
  truncated : bool;
  warnings : string list;
}

let no_info = { candidates = 0; truncated = false; warnings = [] }

(* A candidate source yields candidates in exact [Rank.compare_key] order,
   full-key ties in enumeration order (source node, then DFS order), and
   afterwards reports how many it materialized and whether it stopped at
   [settings.limit]. The strategy only decides which source runs.

   Best-first: [budgets] pairs each source with its shortest cost plus
   slack. The search runs in the domain's Topk workspace
   ([Topk.Memo.domain]): the consumer is done with it before [execute]
   returns, so the next search on this domain may take it over. *)
let best_first_source ~settings ~hierarchy ~freevar_cost_of fz ~dist_to ~budgets ~target =
  let off = fz.Graph.f_fwd_off and fin = fz.Graph.f_fwd_end in
  let iter_succs u f =
    for k = off.{u} to fin.{u} - 1 do
      f k fz.Graph.f_fwd_edge.(k)
    done
  in
  let st =
    Topk.start ?freevar_cost_of ~memo:(Topk.Memo.domain ())
      ~weights:settings.weights ~hierarchy
      ~node_type:(Graph.frozen_node_type fz) ~iter_succs
      ~edge_slots:(Array.length fz.Graph.f_fwd_edge)
      ~materialize:(Jungloid.of_frozen_path fz) ~dist_to ~sources:budgets
      ~target ~limit:settings.limit ()
  in
  ((fun () -> Topk.next st), fun () -> (Topk.materialized st, Topk.truncated st))

(* Exhaustive: every path within its source's budget, ranked up front. The
   stable sort keeps full-key ties in enumeration order, which is the order
   Topk certifies them in, so below the path cap the consumer cannot tell
   the two sources apart. *)
let exhaustive_source ~scratch ~settings ~key_of fz ~sources ~target =
  let truncated = ref false in
  let paths =
    Search.Csr.enumerate_per_source ~scratch fz ~sources ~target
      ~slack:settings.slack ~limit:settings.limit ~truncated ()
  in
  let rest =
    ref
      (Rank.sort_by
         (fun c -> c.Topk.cand_key)
         (List.map
            (fun p ->
              let j = Jungloid.of_frozen_path fz p in
              { Topk.cand_path = p; cand_jungloid = j; cand_key = key_of j })
            paths))
  in
  let next () =
    match !rest with
    | c :: tl ->
        rest := tl;
        Some c
    | [] -> None
  in
  (next, fun () -> (List.length paths, !truncated))

(* The one consumer of a candidate source. Each candidate counts once per
   input variable its source node stands for. With more than one input, a
   run of full-key ties is regrouped by variable name (stably, so each
   variable keeps enumeration order); with one there is nothing to regroup
   and no key is compared. Then the first candidate of each (variable,
   rendering) is kept — distinct jungloids can render identically, e.g.
   two declarations of getFile(String) with a free receiver. Pulling stops
   at [settings.max_results] results. *)
let consume ~settings ~inputs ~render next =
  let out = ref [] and count = ref 0 in
  let tables = ref [] in
  let renderings var =
    match List.assoc_opt var !tables with
    | Some seen -> seen
    | None ->
        let seen = Hashtbl.create 32 in
        tables := (var, seen) :: !tables;
        seen
  in
  let offer seen (c : Topk.candidate) var =
    if !count < settings.max_results then begin
      let expr = Jungloid.to_expression c.Topk.cand_jungloid in
      if not (Hashtbl.mem seen expr) then begin
        Hashtbl.replace seen expr ();
        out := render c var :: !out;
        incr count
      end
    end
  in
  (match inputs with
  | [ (_, var) ] ->
      let seen = renderings var in
      let rec loop () =
        if !count < settings.max_results then
          match next () with
          | Some c ->
              offer seen c var;
              loop ()
          | None -> ()
      in
      loop ()
  | _ ->
      let flush run =
        List.concat_map
          (fun (c : Topk.candidate) ->
            List.filter_map
              (fun (n, var) ->
                if n = c.Topk.cand_path.Search.source then Some (c, var) else None)
              inputs)
          (List.rev run)
        |> List.stable_sort (fun (_, va) (_, vb) -> compare va vb)
        |> List.iter (fun (c, var) -> offer (renderings var) c var)
      in
      let rec loop run =
        if !count < settings.max_results then
          match (next (), run) with
          | None, _ -> flush run
          | Some c, r :: _ when Rank.compare_key r.Topk.cand_key c.Topk.cand_key <> 0 ->
              flush run;
              loop [ c ]
          | Some c, _ -> loop (c :: run)
      in
      loop []);
  List.rev !out

(* The one query executor behind [run], [run_info] and [run_multi]: a
   query is a list of inputs [(type, variable)] searched at once, the
   paper's content-assist mode, and a [(tin, tout)] query is its one-input
   case. Inputs with no node, or that the reach index proves can never
   reach [tout], drop out; every other input gets its own budget, as
   [Search.Csr.enumerate_per_source] budgets sources. Distance lanes come
   from the domain's scratch pool, released when the frame ends (nothing
   in a result refers to them). *)
let execute ~settings ?reach ~frozen:fz ~hierarchy ~inputs ~tout () =
  let strategy, warnings = effective_mode settings in
  let scratch = Search.Scratch.domain () in
  let search ~target inputs =
    let dist_to = Search.Csr.distances_to ~scratch fz ~target in
    let budgets =
      List.filter_map
        (fun s ->
          let d = Search.Dist.get dist_to s in
          if d < max_int then Some (s, Search.budget ~shortest:d ~slack:settings.slack)
          else None)
        (List.sort_uniq compare (List.map fst inputs))
    in
    if budgets = [] then ([], no_info)
    else
      let freevar_cost_of = freevar_estimator ~scratch ~settings fz in
      let next, report =
        match strategy with
        | BestFirst ->
            best_first_source ~settings ~hierarchy ~freevar_cost_of fz ~dist_to ~budgets
              ~target
        | Exhaustive ->
            exhaustive_source ~scratch ~settings
              ~key_of:(Rank.key ~weights:settings.weights ?freevar_cost_of hierarchy)
              fz ~sources:(List.map fst budgets) ~target
      in
      (* The key is the source's own: Topk's incremental one, or the
         exhaustive source's [key_of] — both what [Rank.key] computes. *)
      let render (c : Topk.candidate) var =
        let j = c.Topk.cand_jungloid in
        let input = Option.map (fun name -> (name, Jungloid.input_type j)) var in
        {
          source_var = var;
          result = { jungloid = j; key = c.Topk.cand_key; code = Codegen.to_java ?input j };
        }
      in
      let results = consume ~settings ~inputs ~render next in
      let candidates, truncated = report () in
      Log.debug (fun m ->
          m "query for %s: %d candidates materialized (%s)" (Jtype.to_string tout)
            candidates (strategy_to_string strategy));
      (results, { no_info with candidates; truncated })
  in
  let body () =
    match Graph.frozen_find_type_node fz tout with
    | None -> ([], no_info)
    | Some target -> (
        let reach = current_reach ~gen:(Graph.frozen_generation fz) reach in
        let reaches n =
          match reach with Some r -> Reach.mem r ~src:n ~target | None -> true
        in
        match
          List.filter_map
            (fun (ty, var) ->
              match Graph.frozen_find_type_node fz ty with
              | Some n when reaches n -> Some (n, var)
              | _ -> None)
            inputs
        with
        | [] -> ([], no_info)
        | inputs -> search ~target inputs)
  in
  let results, info = Search.Scratch.with_frame scratch body in
  (results, { info with warnings })

let run_info ?(settings = default_settings) ?reach ~frozen ~hierarchy q =
  let results, info =
    execute ~settings ?reach ~frozen ~hierarchy ~inputs:[ (q.tin, None) ] ~tout:q.tout ()
  in
  (List.map (fun mr -> mr.result) results, info)

let run ?settings ?reach ~frozen ~hierarchy q =
  fst (run_info ?settings ?reach ~frozen ~hierarchy q)

let run_multi ?(settings = default_settings) ?reach ~frozen ~hierarchy ~vars ~tout () =
  fst
    (execute ~settings ?reach ~frozen ~hierarchy
       ~inputs:((Jtype.Void, None) :: List.map (fun (name, ty) -> (ty, Some name)) vars)
       ~tout ())

type cluster = {
  representative : result;
  members : int;
  type_path : string;
}

let type_path_of (j : Jungloid.t) =
  let step ty = Jtype.simple_string ty in
  let types =
    step (Jungloid.input_type j)
    :: List.filter_map
         (fun e -> if Elem.is_widen e then None else Some (step (Elem.output_type e)))
         j.Jungloid.elems
  in
  String.concat " > " types

let cluster results =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = type_path_of r.jungloid in
      match Hashtbl.find_opt seen key with
      | Some c -> Hashtbl.replace seen key { c with members = c.members + 1 }
      | None ->
          Hashtbl.replace seen key { representative = r; members = 1; type_path = key };
          order := key :: !order)
    results;
  List.rev_map (fun key -> Hashtbl.find seen key) !order

(* ------------------------------------------------------------------ *)
(* The query engine: one LRU-memoized batch entry over one snapshot   *)
(* ------------------------------------------------------------------ *)

(* Cache keys are flat records compared and hashed structurally. The old
   scheme rendered keys to strings with separator characters, which an
   adversarial type name containing the separator could forge into a
   collision; a record key cannot collide by construction. Keys carry no
   generation: the engine's snapshot changes only through [engine_reload],
   which clears the cache. *)
type key = {
  k_tin : Jtype.t;
  k_tout : Jtype.t;
  k_settings : settings;
}

type engine = {
  mutable e_hierarchy : Hierarchy.t;  (* swapped by reload *)
  e_cache : (key, result list) Qcache.t;
  e_pool : Pool.t;
  mutable e_frozen : Graph.frozen;  (* CSR snapshot, swapped by reload *)
  mutable e_reach : Reach.t option;  (* built lazily for [e_frozen] *)
}

(* Both public constructors end here, with [frozen] already taken. A seeded
   index only counts if it describes this exact snapshot; anything stale is
   dropped and rebuilt lazily. *)
let make_engine ~cache_capacity ?reach ?pool ~frozen ~hierarchy () =
  let seed =
    match reach with
    | Some r when Reach.generation r = Graph.frozen_generation frozen -> Some r
    | _ -> None
  in
  {
    e_hierarchy = hierarchy;
    e_cache = Qcache.create ~capacity:cache_capacity ();
    e_pool = Option.value pool ~default:Pool.sequential;
    e_frozen = frozen;
    e_reach = seed;
  }

(* [?edge_cost] and [?protocol_check] are ignored: [perfbench/model.ml]
   still passes both. *)
let engine ?(cache_capacity = 256) ?pool ?edge_cost:_ ?protocol_check:_ ~graph ~hierarchy
    () =
  make_engine ~cache_capacity ?pool ~frozen:(freeze graph) ~hierarchy ()

(* An engine over a snapshot the caller already froze. A [reach] seed is an
   index the caller already built from [frozen]. *)
let engine_of_frozen ?(cache_capacity = 256) ?reach ?pool ~frozen ~hierarchy () =
  make_engine ~cache_capacity ?reach ?pool ~frozen ~hierarchy ()

let engine_hierarchy e = e.e_hierarchy

let engine_frozen e = e.e_frozen

(* The reach index for the current snapshot, built on first use. *)
let reach_of e =
  match e.e_reach with
  | Some r -> r
  | None ->
      let r = Reach.build_frozen ~pool:e.e_pool e.e_frozen in
      Log.debug (fun m ->
          m "engine: reach index built — %d nodes, %d SCCs" (Reach.node_count r)
            (Reach.scc_count r));
      e.e_reach <- Some r;
      r

let engine_reach e = Some (reach_of e)

(* Kept for the callers in [perfbench/]; no plan is ever made. *)
let engine_shards (_ : engine) : Shard.t option = None

let engine_stats e = Qcache.stats e.e_cache

(* Live reload: swap a delta patch into the engine without a cold restart.
   The reach index is maintained incrementally (only components that
   reach a changed edge's source are re-closed — [Reach.patch]); a
   [Rebuilt] patch has unstable node ids, so its index is rebuilt lazily
   instead. The cache
   is cleared: every cached answer describes the old snapshot. *)
let engine_reload e (patch : Delta.patch) =
  let old_gen = Graph.frozen_generation e.e_frozen in
  let fz = patch.Delta.p_frozen in
  let reach' =
    match e.e_reach with
    | Some r when patch.Delta.p_mode = Delta.Spliced ->
        Some (Reach.patch ~pool:e.e_pool ~old:r ~sources:patch.Delta.p_sources fz)
    | _ -> None (* rebuilt lazily on next use *)
  in
  Qcache.clear e.e_cache;
  e.e_hierarchy <- patch.Delta.p_hierarchy;
  e.e_frozen <- fz;
  e.e_reach <- reach';
  Log.debug (fun m ->
      m "engine: reloaded (%s) — generation %d -> %d, %d touched nodes"
        (Delta.mode_string patch.Delta.p_mode)
        old_gen (Graph.frozen_generation fz) patch.Delta.p_touched_count)

let cache_key ~settings q = { k_tin = q.tin; k_tout = q.tout; k_settings = settings }

(* A batch replays the one-query-at-a-time cache protocol exactly:

   Phase A walks the input and collects the distinct keys the cache does not
   hold, in first-occurrence order, using only the effect-free [Qcache.mem].
   Phase B computes those misses across the pool — every worker reads the
   same snapshot, reach index, and warmed hierarchy, and writes nothing
   shared. Phase C then performs, sequentially and in input order, the
   [find_or_add] sequence one query at a time would perform, except that a
   miss takes its value from phase B instead of computing. Hits, misses,
   recency order, and evictions are therefore the same at every pool size —
   not just the returned results. A key that phase C misses but phase B did
   not precompute (possible when replay evictions shuffle the cache
   differently than phase A predicted) is recomputed inline. *)
let run_batch ?(settings = default_settings) e qs =
  Hierarchy.warm e.e_hierarchy;
  let reach = reach_of e in
  let key q = cache_key ~settings q in
  let solve q = run ~settings ~reach ~frozen:e.e_frozen ~hierarchy:e.e_hierarchy q in
  let seen = Hashtbl.create 64 in
  let misses =
    List.filter
      (fun q ->
        let k = key q in
        if Qcache.mem e.e_cache k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      qs
  in
  let precomputed = Hashtbl.create 64 in
  List.iter
    (fun (k, r) -> Hashtbl.replace precomputed k r)
    (Pool.map_list e.e_pool (fun q -> (key q, solve q)) misses);
  List.map
    (fun q ->
      ( q,
        Qcache.find_or_add e.e_cache (key q) (fun () ->
            match Hashtbl.find_opt precomputed (key q) with
            | Some r -> r
            | None -> solve q) ))
    qs
