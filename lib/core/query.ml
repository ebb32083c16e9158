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

(* [BestFirst] answers the same query by popping a rank-ordered heap of
   path prefixes (see [Topk]) and stopping once [max_results] distinct
   solutions are certified — provably the same output as the exhaustive
   pipeline, without materializing thousands of also-rans. [Exhaustive]
   remains as the equivalence oracle and for corpus tooling that wants the
   whole within-budget path set anyway. *)
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

(* [Mined] orders results by the usage-weighted cost learned from the
   corpus ([Mining.Usage]), with the paper key as tiebreak; the candidate
   set (paper-cost budget) is unchanged, so both rankings surface the same
   solutions in different orders. The cost model itself travels separately
   (the [?edge_cost] arguments / the engine field): settings stay a flat
   structurally-comparable record, which the query cache keys require. *)
type ranking =
  | Paper
  | Mined

let ranking_to_string = function Paper -> "paper" | Mined -> "mined"

let ranking_of_string = function
  | "paper" -> Ok Paper
  | "mined" -> Ok Mined
  | s ->
      Error
        (Printf.sprintf "unknown ranking %S (expected \"paper\" or \"mined\")" s)

(* Typestate vetting of synthesized chains against a mined protocol model
   ([Analysis.Protolint] via [Mining.Protomine]). Like the usage model,
   the checker itself travels separately ([?protocol_check] / the engine
   field) so settings stay flat and structurally comparable. [Warn]
   surfaces violations in [info.warnings] without touching the result
   list; [Filter] drops violating chains — post-enumeration, per
   candidate, at exactly the positions the [?verify] oracle runs, never
   inside the search priority, so BestFirst stays byte-identical to the
   Exhaustive oracle. *)
type protocol =
  | Off
  | Warn
  | Filter

let protocol_to_string = function Off -> "off" | Warn -> "warn" | Filter -> "filter"

let protocol_of_string = function
  | "off" -> Ok Off
  | "warn" -> Ok Warn
  | "filter" -> Ok Filter
  | s ->
      Error
        (Printf.sprintf
           "unknown protocol %S (expected \"off\", \"warn\" or \"filter\")" s)

type settings = {
  slack : int;
  limit : int;
  max_results : int;
  weights : Rank.weights;
  estimate_freevars : bool;
  strategy : strategy;
  ranking : ranking;
  protocol : protocol;
}

let default_settings =
  {
    slack = 1;
    limit = 4096;
    max_results = 10;
    weights = Rank.default_weights;
    estimate_freevars = false;
    strategy = BestFirst;
    ranking = Paper;
    protocol = Off;
  }

(* A negative free-variable cost would make the best-first priority
   non-monotone (prefixes could get cheaper as they grow), voiding the
   order certificate; such ablation configurations fall back to the
   exhaustive strategy. Likewise [Mined] without a loaded usage model
   falls back to the paper ranking, and [Warn]/[Filter] without a loaded
   protocol checker fall back to [Off]. All fallbacks are reported in
   [info.warnings] so callers are never silently served by a different
   configuration than they asked for. *)
let effective_mode ~edge_cost ~protocol_check settings =
  let warnings = ref [] in
  let strategy =
    if settings.weights.Rank.freevar_cost < 0 && settings.strategy = BestFirst then begin
      warnings :=
        "negative freevar_cost voids the best-first order certificate; falling back to the exhaustive strategy"
        :: !warnings;
      Exhaustive
    end
    else settings.strategy
  in
  let ranking =
    match settings.ranking with
    | Mined when Option.is_none edge_cost ->
        warnings :=
          "mined ranking requested but no usage model is loaded; falling back to the paper ranking"
          :: !warnings;
        Paper
    | r -> r
  in
  (* Gate the cost model on the effective ranking so paper-mode callers
     that happen to hold a model rank identically to ones that do not. *)
  let edge_cost = match ranking with Mined -> edge_cost | Paper -> None in
  let protocol =
    match settings.protocol with
    | (Warn | Filter) when Option.is_none protocol_check ->
        warnings :=
          "protocol checking requested but no protocol model is loaded; running with protocol checks off"
          :: !warnings;
        Off
    | p -> p
  in
  List.iter (fun w -> Log.warn (fun m -> m "%s" w)) (List.rev !warnings);
  (strategy, edge_cost, protocol, List.rev !warnings)

(* In [Filter] mode a violating chain is dropped exactly where the
   [?verify] oracle drops unsound ones: after enumeration, per candidate,
   before truncation — never inside the search priority (which is what
   keeps BestFirst certified against the Exhaustive oracle). *)
let protocol_pred ~protocol ~protocol_check =
  match (protocol, protocol_check) with
  | Filter, Some pc ->
      Some
        (fun j ->
          let ok = pc j = [] in
          if not ok then
            Log.info (fun m ->
                m "protocol filter dropped %s" (Jungloid.to_string j));
          ok)
  | _ -> None

let protocol_filter pfilter js =
  match pfilter with None -> js | Some ok -> List.filter ok js

(* The snapshot a [?graph] call runs on, and the one an engine keeps. The
   void pseudo-node is interned first so every snapshot can serve the
   multi-source (content-assist) path without creating it mid-query, which
   would bump the generation under the engine's caches; [Sig_graph.build]
   already interns it, so freezing a built graph never moves its
   generation. The cost model, if any, is baked into the weighted lanes,
   so weighted search agrees with the model the rank layer applies. *)
let freeze ?edge_cost graph =
  ignore (Graph.void_node graph);
  Graph.freeze ?wcost:edge_cost graph

(* [?frozen] wins when both are given. [edge_cost] is the effective model,
   so a paper-ranked call never pays for baking a mined one. *)
let snapshot ?frozen ?graph ~edge_cost () =
  match (frozen, graph) with
  | Some fz, _ -> fz
  | None, Some g -> freeze ?edge_cost g
  | None, None -> invalid_arg "Query: pass at least one of ?graph / ?frozen"

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

(* Soundness filtering is injected as a closure so the analyzer can sit on
   top of this library without a dependency cycle; the counters let callers
   report how much (ideally nothing) the oracle rejected. *)
type verify = {
  vcheck : Jungloid.t -> bool;
  mutable vchecked : int;
  mutable vfiltered : int;
}

let verifier vcheck = { vcheck; vchecked = 0; vfiltered = 0 }

let verify_filter verify js =
  match verify with
  | None -> js
  | Some v ->
      List.filter
        (fun j ->
          v.vchecked <- v.vchecked + 1;
          let ok = v.vcheck j in
          if not ok then begin
            v.vfiltered <- v.vfiltered + 1;
            Log.warn (fun m -> m "verifier rejected %s" (Jungloid.to_string j))
          end;
          ok)
        js

type multi_result = {
  source_var : string option;
  result : result;
}

(* Deduplicate jungloids that arise from different graph paths (typestate
   splicing can yield the same elementary-jungloid sequence twice). *)
let dedup js =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun j ->
      if Hashtbl.mem seen j then false
      else begin
        Hashtbl.replace seen j ();
        true
      end)
    js

(* Distinct jungloids can render identically (e.g. two declarations of
   getFile(String) with a free receiver); showing both tells the user
   nothing. Keep the best-ranked representative — a minimal version of the
   result clustering the paper leaves to future work. *)
let dedup_rendered ranked =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun j ->
      let text = Jungloid.to_expression j in
      if Hashtbl.mem seen text then false
      else begin
        Hashtbl.replace seen text ();
        true
      end)
    ranked

let rank_and_render ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~input_name
    ~verify ~pfilter paths_to_jungloid paths =
  let jungloids = dedup (List.map paths_to_jungloid paths) in
  let ranked =
    dedup_rendered
      (Rank.sort ~weights:settings.weights ?freevar_cost_of ?edge_cost hierarchy
         jungloids)
  in
  (* Unsound chains are dropped before truncation so a rejected result frees
     its slot for the next-ranked sound one; protocol filtering runs after
     the oracle so its counters see the same candidates either way. *)
  let ranked = verify_filter verify ranked in
  let ranked = protocol_filter pfilter ranked in
  List.filteri (fun i _ -> i < settings.max_results) ranked
  |> List.map (fun j ->
         let input =
           match (input_name j, Jungloid.input_type j) with
           | Some name, ty -> Some (name, ty)
           | None, _ -> None
         in
         {
           jungloid = j;
           key =
             Rank.key ~weights:settings.weights ?freevar_cost_of ?edge_cost hierarchy
               j;
           code = Codegen.to_java ?input j;
         })

(* A reach index only prunes when it describes the snapshot the query
   reads: the generation captured at freeze time. Anything stale (engine
   callers never produce this, manual callers might) is ignored rather than
   risked. *)
let current_reach ~gen reach =
  match reach with Some r when Reach.generation r = gen -> Some r | _ -> None

(* Filtering every BFS relaxation costs more than it saves once the viable
   cone covers most of the graph (on the dense curated graph cones run
   ~95%), so the prune only engages below this fraction; above it the index
   still provides the O(1) unsolvable-query rejection. Either way the result
   set is identical. *)
let prune_threshold = 0.75

let viable_of ~reach ~target =
  match reach with
  | None -> None
  | Some r -> (
      match Reach.cone r ~target with
      | None -> None
      | Some (cn, size) ->
          if
            float_of_int size
            <= prune_threshold *. float_of_int (Reach.node_count r)
          then Some cn
          else None)

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

(* The best-first generator for one query shape, positioned exactly where
   [Search.Csr.enumerate] sits in the exhaustive pipeline. [sources]
   carries the per-source budget (shortest-cost-from-that-source + slack).
   With an [edge_cost] model the stream runs in weighted mode: priorities
   use the exact weighted distances over the snapshot's baked [wcost] lanes
   while the budget prune stays on the paper [dist_to], so the candidate
   set is unchanged and only the certified order follows the mined costs.
   Edge ordinals are global CSR indices, so the per-edge rank memo is
   keyed once per edge. *)
let topk_stream ?scratch ?memo ~settings ~hierarchy ~freevar_cost_of ?edge_cost
    ?cone fz ~dist_to ~sources ~target =
  let weighted =
    Option.map
      (fun _ ->
        {
          Topk.wdist_to =
            Search.Csr.weighted_distances_to ?scratch ?cone fz ~target;
          edge_wcost = (fun ord _ -> fz.Graph.f_fwd_wcost.(ord));
        })
      edge_cost
  in
  let off = fz.Graph.f_fwd_off and fin = fz.Graph.f_fwd_end in
  let iter_succs u f =
    for k = off.{u} to fin.{u} - 1 do
      f k fz.Graph.f_fwd_edge.(k)
    done
  in
  Topk.start ?freevar_cost_of ?weighted ?memo ~weights:settings.weights
    ~hierarchy ~node_type:(Graph.frozen_node_type fz) ~iter_succs
    ~edge_slots:(Array.length fz.Graph.f_fwd_edge)
    ~materialize:(Jungloid.of_frozen_path fz) ~dist_to ~sources ~target
    ~limit:settings.limit ()

(* Consume a certified-order candidate stream for the single-source query:
   the expression-level dedup subsumes the exhaustive pipeline's structural
   dedup (structurally equal jungloids render identically), verification
   frees slots exactly as in [rank_and_render], and the stream stops as
   soon as [max_results] survivors exist. *)
(* Lazy result stream over a [Topk] heap. Forcing the next element pulls
   candidates until one survives dedup + verify + protocol filtering; the
   memoization makes re-traversal safe even though the heap is stateful.
   [consume_single] (the query op) and [run_stream] (the refine workload)
   share this producer, so a refine session's candidate list is the query
   reply's result list by construction. *)
let stream_single ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~verify
    ~pfilter st =
  let seen = Hashtbl.create 32 in
  let rec next () =
    match Topk.next st with
    | None -> Seq.Nil
    | Some c ->
        let j = c.Topk.cand_jungloid in
        let expr = Jungloid.to_expression j in
        if Hashtbl.mem seen expr then next ()
        else begin
          Hashtbl.replace seen expr ();
          let ok =
            match verify with
            | None -> true
            | Some v ->
                v.vchecked <- v.vchecked + 1;
                let ok = v.vcheck j in
                if not ok then begin
                  v.vfiltered <- v.vfiltered + 1;
                  Log.warn (fun m -> m "verifier rejected %s" (Jungloid.to_string j))
                end;
                ok
          in
          let ok = ok && match pfilter with None -> true | Some f -> f j in
          if ok then
            let r =
              {
                jungloid = j;
                key =
                  Rank.key ~weights:settings.weights ?freevar_cost_of ?edge_cost
                    hierarchy j;
                code = Codegen.to_java j;
              }
            in
            Seq.Cons (r, next)
          else next ()
        end
  in
  Seq.memoize next

let consume_single ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~verify
    ~pfilter st =
  List.of_seq
    (Seq.take settings.max_results
       (stream_single ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~verify
          ~pfilter st))

let run_info ?(settings = default_settings) ?reach ?frozen ?verify ?edge_cost
    ?protocol_check ?graph ~hierarchy q =
  let strategy, edge_cost, protocol, warnings =
    effective_mode ~edge_cost ~protocol_check settings
  in
  let fz = snapshot ?frozen ?graph ~edge_cost () in
  (* Consume-within-call entry point: distance lanes come from the domain's
     scratch pool (released when the frame below ends — nothing in a
     [result] refers to them), and the search runs in the domain's Topk
     workspace ([Topk.Memo.domain]): [consume_single] is done with the
     enumeration before this call returns, so the next search on this
     domain may take the workspace over. *)
  let scratch = Search.Scratch.domain () in
  let pfilter = protocol_pred ~protocol ~protocol_check in
  let no_info = { no_info with warnings } in
  let body () =
  match
    (Graph.frozen_find_type_node fz q.tin, Graph.frozen_find_type_node fz q.tout)
  with
  | Some src, Some dst ->
      let reach = current_reach ~gen:(Graph.frozen_generation fz) reach in
      let cone = viable_of ~reach ~target:dst in
      if match reach with Some r -> not (Reach.mem r ~src ~target:dst) | None -> false
      then begin
        Log.debug (fun m ->
            m "query (%s, %s): pruned — tin can never reach tout"
              (Jtype.to_string q.tin) (Jtype.to_string q.tout));
        ([], no_info)
      end
      else begin
        let freevar_cost_of = freevar_estimator ~scratch ~settings fz in
        match strategy with
        | Exhaustive ->
            let truncated = ref false in
            let paths =
              Search.Csr.enumerate ~scratch fz ~sources:[ src ] ~target:dst
                ~slack:settings.slack ~limit:settings.limit ?cone ~truncated ()
            in
            Log.debug (fun m ->
                m "query (%s, %s): %d paths enumerated" (Jtype.to_string q.tin)
                  (Jtype.to_string q.tout) (List.length paths));
            ( rank_and_render ~settings ~hierarchy ~freevar_cost_of ?edge_cost
                ~input_name:(fun _ -> None)
                ~verify ~pfilter (Jungloid.of_frozen_path fz) paths,
              { candidates = List.length paths; truncated = !truncated; warnings } )
        | BestFirst ->
            let dist_to = Search.Csr.distances_to ~scratch ?cone fz ~target:dst in
            let dsrc = Search.Dist.get dist_to src in
            if dsrc = max_int then begin
              Log.debug (fun m ->
                  m "query (%s, %s): no path" (Jtype.to_string q.tin)
                    (Jtype.to_string q.tout));
              ([], no_info)
            end
            else begin
              let st =
                topk_stream ~scratch ~memo:(Topk.Memo.domain ()) ~settings
                  ~hierarchy ~freevar_cost_of ?edge_cost ?cone fz ~dist_to
                  ~sources:[ (src, dsrc + settings.slack) ]
                  ~target:dst
              in
              let results =
                consume_single ~settings ~hierarchy ~freevar_cost_of ?edge_cost
                  ~verify ~pfilter st
              in
              Log.debug (fun m ->
                  m "query (%s, %s): %d candidates materialized (best-first)"
                    (Jtype.to_string q.tin) (Jtype.to_string q.tout)
                    (Topk.materialized st));
              ( results,
                {
                  candidates = Topk.materialized st;
                  truncated = Topk.truncated st;
                  warnings;
                } )
            end
      end
  | _ ->
      Log.debug (fun m ->
          m "query (%s, %s): type not in graph" (Jtype.to_string q.tin)
            (Jtype.to_string q.tout));
      ([], no_info)
  in
  let results, info = Search.Scratch.with_frame scratch body in
  (* [Warn] never touches the result list: emitted results are vetted after
     selection and violations ride along as warnings only, so the output
     stays byte-identical to [Off] (and BestFirst to Exhaustive). *)
  match (protocol, protocol_check) with
  | Warn, Some pc ->
      let pwarnings =
        List.concat_map
          (fun r ->
            List.map
              (fun v ->
                Printf.sprintf "protocol: %s: %s" (Jungloid.to_expression r.jungloid) v)
              (pc r.jungloid))
          results
      in
      List.iter (fun w -> Log.warn (fun m -> m "%s" w)) pwarnings;
      (results, { info with warnings = info.warnings @ pwarnings })
  | _ -> (results, info)

let run ?settings ?reach ?frozen ?verify ?edge_cost ?protocol_check ?graph
    ~hierarchy q =
  fst
    (run_info ?settings ?reach ?frozen ?verify ?edge_cost ?protocol_check
       ?graph ~hierarchy q)

(* Escaping entry point: the returned sequence captures live search state
   (distance lanes, the Topk heap), so it must not borrow recycled
   per-domain scratch or the domain's Topk workspace — the next query on
   this domain would take that workspace and the stream's [Topk.next] would
   raise. The kernels run without scratch (one-shot lanes) and
   [topk_stream] gets no memo, so the search owns a private workspace. *)
let run_stream ?(settings = default_settings) ?reach ?verify ?edge_cost
    ?protocol_check ~frozen:fz ~hierarchy q =
  let edge_cost0 = edge_cost in
  let strategy, edge_cost, protocol, _warnings =
    effective_mode ~edge_cost ~protocol_check settings
  in
  let pfilter = protocol_pred ~protocol ~protocol_check in
  match strategy with
  | Exhaustive ->
      (* exhaustive ranking needs the full path set up front; the stream
         degenerates to the ranked list *)
      List.to_seq
        (run ~settings ?reach ~frozen:fz ?verify ?edge_cost:edge_cost0
           ?protocol_check ~hierarchy q)
  | BestFirst -> (
      match
        (Graph.frozen_find_type_node fz q.tin, Graph.frozen_find_type_node fz q.tout)
      with
      | Some src, Some dst ->
          let reach = current_reach ~gen:(Graph.frozen_generation fz) reach in
          let cone = viable_of ~reach ~target:dst in
          if
            match reach with
            | Some r -> not (Reach.mem r ~src ~target:dst)
            | None -> false
          then Seq.empty
          else begin
            let freevar_cost_of = freevar_estimator ~settings fz in
            let dist_to = Search.Csr.distances_to ?cone fz ~target:dst in
            let dsrc = Search.Dist.get dist_to src in
            if dsrc = max_int then Seq.empty
            else
              let st =
                topk_stream ~settings ~hierarchy ~freevar_cost_of ?edge_cost
                  ?cone fz ~dist_to
                  ~sources:[ (src, dsrc + settings.slack) ]
                  ~target:dst
              in
              stream_single ~settings ~hierarchy ~freevar_cost_of ?edge_cost
                ~verify ~pfilter st
          end
      | _ -> Seq.empty)

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

(* The multi-source best-first consumer. Candidates arrive in certified
   rank order; the exhaustive pipeline additionally orders pairs with equal
   keys by their source variable ([compare sa sb] after [compare_key]), so
   the stream is buffered into maximal equal-key runs, each run expanded
   into (jungloid, source-var) pairs and sorted by source before emission.
   All candidates of one structurally-equal jungloid share one key and
   therefore one run, so the per-run (jungloid, source) dedup reproduces
   the exhaustive [Hashtbl.replace] dedup exactly. *)
let consume_multi ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~verify
    ~pfilter ~void ~var_nodes st =
  let seen_pair = Hashtbl.create 64 in
  let seen_expr = Hashtbl.create 64 in
  let out = ref [] in
  let count = ref 0 in
  let buffer = ref [] in
  let flush_run () =
    let cands = List.rev !buffer in
    buffer := [];
    let pairs =
      List.concat_map
        (fun (c : Topk.candidate) ->
          let srcs =
            if void = Some c.Topk.cand_path.Search.source then [ None ]
            else
              List.filter_map
                (fun (n, name) ->
                  if n = c.Topk.cand_path.Search.source then Some (Some name) else None)
                var_nodes
          in
          List.filter_map
            (fun s ->
              if Hashtbl.mem seen_pair (c.Topk.cand_jungloid, s) then None
              else begin
                Hashtbl.replace seen_pair (c.Topk.cand_jungloid, s) ();
                Some (c, s)
              end)
            srcs)
        cands
    in
    let pairs = List.stable_sort (fun (_, sa) (_, sb) -> compare sa sb) pairs in
    List.iter
      (fun ((c : Topk.candidate), s) ->
        if !count < settings.max_results then begin
          let j = c.Topk.cand_jungloid in
          let ekey = (s, Jungloid.to_expression j) in
          if not (Hashtbl.mem seen_expr ekey) then begin
            Hashtbl.replace seen_expr ekey ();
            let ok =
              match verify with
              | None -> true
              | Some v ->
                  v.vchecked <- v.vchecked + 1;
                  let ok = v.vcheck j in
                  if not ok then begin
                    v.vfiltered <- v.vfiltered + 1;
                    Log.warn (fun m -> m "verifier rejected %s" (Jungloid.to_string j))
                  end;
                  ok
            in
            let ok = ok && match pfilter with None -> true | Some f -> f j in
            if ok then begin
              let input =
                match s with
                | Some name -> Some (name, Jungloid.input_type j)
                | None -> None
              in
              out :=
                {
                  source_var = s;
                  result =
                    {
                      jungloid = j;
                      key =
                        Rank.key ~weights:settings.weights ?freevar_cost_of
                          ?edge_cost hierarchy j;
                      code = Codegen.to_java ?input j;
                    };
                }
                :: !out;
              incr count
            end
          end
        end)
      pairs
  in
  let rec loop last_key =
    if !count >= settings.max_results then ()
    else
      match Topk.next st with
      | None -> flush_run ()
      | Some c ->
          (match last_key with
          | Some k when Rank.compare_key k c.Topk.cand_key <> 0 -> flush_run ()
          | _ -> ());
          buffer := c :: !buffer;
          loop (Some c.Topk.cand_key)
  in
  loop None;
  List.rev !out

let run_multi ?(settings = default_settings) ?reach ?frozen ?verify ?edge_cost
    ?protocol_check ?graph ~hierarchy ~vars ~tout () =
  let strategy, edge_cost, protocol, _warnings =
    effective_mode ~edge_cost ~protocol_check settings
  in
  let fz = snapshot ?frozen ?graph ~edge_cost () in
  let scratch = Search.Scratch.domain () in
  let pfilter = protocol_pred ~protocol ~protocol_check in
  let body () =
  match Graph.frozen_find_type_node fz tout with
  | None -> []
  | Some dst ->
      let var_nodes =
        List.filter_map
          (fun (name, ty) ->
            Option.map (fun n -> (n, name)) (Graph.frozen_find_type_node fz ty))
          vars
      in
      let void = Graph.frozen_void_node fz in
      let sources =
        match void with
        | Some v -> v :: List.map fst var_nodes
        | None -> List.map fst var_nodes
      in
      let cone =
        viable_of
          ~reach:(current_reach ~gen:(Graph.frozen_generation fz) reach)
          ~target:dst
      in
      let freevar_cost_of = freevar_estimator ~scratch ~settings fz in
      let exhaustive () =
        let truncated = ref false in
        let paths =
          Search.Csr.enumerate_per_source ~scratch fz ~sources ~target:dst
            ~slack:settings.slack ~limit:settings.limit ?cone ~truncated ()
        in
        (* Attribute each path to the variables of its source node; a path
           from the void node belongs to no variable. Distinct (jungloid,
           source) pairs each become one suggestion, kept in first-occurrence
           enumeration order so that the stable sort below resolves full
           rank-key ties exactly as the best-first consumer does. *)
        let seen_pair = Hashtbl.create 64 in
        let pairs =
          List.concat_map
            (fun (p : Search.path) ->
              let j = Jungloid.of_frozen_path fz p in
              let srcs =
                if void = Some p.Search.source then [ None ]
                else
                  List.filter_map
                    (fun (n, name) ->
                      if n = p.Search.source then Some (Some name) else None)
                    var_nodes
              in
              List.filter_map
                (fun s ->
                  if Hashtbl.mem seen_pair (j, s) then None
                  else begin
                    Hashtbl.replace seen_pair (j, s) ();
                    Some (j, s)
                  end)
                srcs)
            paths
        in
        let ranked =
          List.map
            (fun (j, s) ->
              ( Rank.key ~weights:settings.weights ?freevar_cost_of ?edge_cost
                  hierarchy j,
                j,
                s ))
            pairs
          |> List.stable_sort (fun (ka, _, sa) (kb, _, sb) ->
                 match Rank.compare_key ka kb with
                 | 0 -> compare sa sb
                 | c -> c)
        in
        let seen = Hashtbl.create 64 in
        let ranked =
          List.filter
            (fun (_, j, s) ->
              let key = (s, Jungloid.to_expression j) in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                true
              end)
            ranked
        in
        let ranked =
          match verify with
          | None -> ranked
          | Some _ ->
              let keep = verify_filter verify (List.map (fun (_, j, _) -> j) ranked) in
              List.filter (fun (_, j, _) -> List.memq j keep) ranked
        in
        let ranked =
          match pfilter with
          | None -> ranked
          | Some f -> List.filter (fun (_, j, _) -> f j) ranked
        in
        List.filteri (fun i _ -> i < settings.max_results) ranked
        |> List.map (fun (key, j, s) ->
               let input =
                 match s with
                 | Some name -> Some (name, Jungloid.input_type j)
                 | None -> None
               in
               {
                 source_var = s;
                 result = { jungloid = j; key; code = Codegen.to_java ?input j };
               })
      in
      let best_first () =
        let dist_to = Search.Csr.distances_to ~scratch ?cone fz ~target:dst in
        let budgeted =
          List.filter_map
            (fun s ->
              let d = Search.Dist.get dist_to s in
              if d < max_int then Some (s, d + settings.slack) else None)
            (List.sort_uniq compare sources)
        in
        if budgeted = [] then []
        else
          let st =
            topk_stream ~scratch ~memo:(Topk.Memo.domain ()) ~settings
              ~hierarchy ~freevar_cost_of ?edge_cost ?cone fz ~dist_to
              ~sources:budgeted ~target:dst
          in
          consume_multi ~settings ~hierarchy ~freevar_cost_of ?edge_cost ~verify
            ~pfilter ~void ~var_nodes st
      in
      (match strategy with
      | Exhaustive -> exhaustive ()
      | BestFirst -> best_first ())
  in
  let results = Search.Scratch.with_frame scratch body in
  (* [run_multi] has no info channel: [Warn]-mode violations on emitted
     suggestions are logged, results untouched. *)
  (match (protocol, protocol_check) with
  | Warn, Some pc ->
      List.iter
        (fun mr ->
          List.iter
            (fun v ->
              Log.warn (fun m ->
                  m "protocol: %s: %s"
                    (Jungloid.to_expression mr.result.jungloid)
                    v))
            (pc mr.result.jungloid))
        results
  | _ -> ());
  results

(* ------------------------------------------------------------------ *)
(* The query engine: LRU-memoized, reachability-pruned entry points    *)
(* ------------------------------------------------------------------ *)

(* Cache keys are flat records compared and hashed structurally. The old
   scheme rendered keys to strings with separator characters, which an
   adversarial type name containing the separator could forge into a
   collision; a record key cannot collide by construction. Generation rides
   along even though validation already clears stale entries — a second,
   independent guard against serving results for a graph that no longer
   exists. *)
type single_key = {
  sk_tin : Jtype.t;
  sk_tout : Jtype.t;
  sk_settings : settings;
  sk_gen : int;
}

type multi_key = {
  mk_vars : (string * Jtype.t) list;
  mk_tout : Jtype.t;
  mk_settings : settings;
  mk_gen : int;
}

type engine = {
  mutable e_graph : Graph.t Lazy.t;
      (* mmap-warm-started engines never pay for the mutable rebuild unless
         something (enrichment, DOT export) actually asks for it; reload
         swaps in a lazy rebuild of the patched snapshot *)
  mutable e_hierarchy : Hierarchy.t;  (* swapped by reload *)
  e_single : (single_key, result list) Qcache.t;
  e_multi : (multi_key, multi_result list) Qcache.t;
  e_prune : bool;
  e_pool : Pool.t;
  mutable e_edge_cost : (Elem.t -> int) option;  (* mined cost model, if loaded *)
  mutable e_protocol_check : (Jungloid.t -> string list) option;
      (* mined typestate checker, if loaded: violations of a chain *)
  mutable e_frozen : Graph.frozen;  (* CSR snapshot, valid for [e_gen] *)
  mutable e_reach : Reach.t option;  (* built lazily, valid for [e_gen] *)
  mutable e_shards : Shard.t option option;
      (* package-cone shard plan: [None] = not planned yet,
         [Some None] = planned and unavailable *)
  mutable e_gen : int;  (* graph generation the caches describe *)
}

let engine ?(cache_capacity = 256) ?(prune = true) ?reach ?pool ?edge_cost
    ?protocol_check ~graph ~hierarchy () =
  (* A persisted index (Serialize.load_reach) only counts if it describes
     this exact graph build; anything stale is dropped and rebuilt lazily. *)
  let frozen = freeze ?edge_cost graph in
  let seed =
    match reach with
    | Some r when prune && Reach.generation r = Graph.generation graph -> Some r
    | _ -> None
  in
  {
    e_graph = Lazy.from_val graph;
    e_hierarchy = hierarchy;
    e_single = Qcache.create ~capacity:cache_capacity ();
    e_multi = Qcache.create ~capacity:cache_capacity ();
    e_prune = prune;
    e_pool = Option.value pool ~default:Pool.sequential;
    e_edge_cost = edge_cost;
    e_protocol_check = protocol_check;
    e_frozen = frozen;
    e_reach = seed;
    e_shards = None;
    e_gen = Graph.generation graph;
  }

(* The warm-start constructor: everything engine-driven runs on the snapshot
   as loaded (possibly mmapped), and the mutable graph exists only as a
   lazy rebuild. An [edge_cost] model re-bakes the weighted-cost arrays —
   snapshots persist only the default baking — and a persisted reach index
   seeds pruning exactly as in [engine]. *)
let engine_of_frozen ?(cache_capacity = 256) ?(prune = true) ?reach ?pool
    ?edge_cost ?protocol_check ~frozen ~hierarchy () =
  let frozen =
    match edge_cost with
    | Some wcost -> Graph.rebake ~wcost frozen
    | None -> frozen
  in
  let gen = Graph.frozen_generation frozen in
  let seed =
    match reach with
    | Some r when prune && Reach.generation r = gen -> Some r
    | _ -> None
  in
  {
    e_graph = lazy (Graph.of_frozen frozen);
    e_hierarchy = hierarchy;
    e_single = Qcache.create ~capacity:cache_capacity ();
    e_multi = Qcache.create ~capacity:cache_capacity ();
    e_prune = prune;
    e_pool = Option.value pool ~default:Pool.sequential;
    e_edge_cost = edge_cost;
    e_protocol_check = protocol_check;
    e_frozen = frozen;
    e_reach = seed;
    e_shards = None;
    e_gen = gen;
  }

let engine_graph e = Lazy.force e.e_graph

let engine_hierarchy e = e.e_hierarchy

let engine_edge_cost e = e.e_edge_cost

let engine_protocol_check e = e.e_protocol_check

(* The generation the engine's caches would be validated against right now:
   the live graph's if the mutable view was ever forced, the snapshot's
   otherwise. Probing it never forces the rebuild (the server's stats and
   staleness checks use this). *)
let engine_live_generation e =
  if Lazy.is_val e.e_graph then Graph.generation (Lazy.force e.e_graph)
  else e.e_gen

let invalidate e =
  let graph = Lazy.force e.e_graph in
  Log.debug (fun m ->
      m "engine: invalidated at graph generation %d" (Graph.generation graph));
  Qcache.clear e.e_single;
  Qcache.clear e.e_multi;
  e.e_reach <- None;
  e.e_shards <- None;
  e.e_frozen <- freeze ?edge_cost:e.e_edge_cost graph;
  e.e_gen <- Graph.generation graph

(* Every cached entry point revalidates first, so mutating the graph (e.g.
   Mining.Enrich splicing in mined examples) transparently flushes both
   caches, the snapshot, and the reach index the next time the engine is
   used. A graph that was never forced cannot have moved. *)
let validate e = if engine_live_generation e <> e.e_gen then invalidate e

let engine_frozen e =
  validate e;
  e.e_frozen

let engine_reach e =
  validate e;
  if not e.e_prune then None
  else
    match e.e_reach with
    | Some r -> Some r
    | None ->
        let r = Reach.build_frozen ~pool:e.e_pool e.e_frozen in
        Log.debug (fun m ->
            m "engine: reach index built — %d nodes, %d SCCs" (Reach.node_count r)
              (Reach.scc_count r));
        e.e_reach <- Some r;
        Some r

(* The package-cone shard plan for the current snapshot, planned on first
   use (shard contents themselves stay lazy inside [Shard.t]). Needs the
   reach index — without pruning there is no condensation to plan over. *)
let engine_shards e =
  validate e;
  match e.e_shards with
  | Some s -> s
  | None ->
      let s =
        match engine_reach e with
        | None -> None
        | Some r -> Shard.plan e.e_frozen r
      in
      (match s with
      | Some sh ->
          Log.debug (fun m ->
              m "engine: shard plan — %d package groups" (Shard.shard_count sh))
      | None -> ());
      e.e_shards <- Some s;
      s

let engine_stats e = Qcache.merge_stats (Qcache.stats e.e_single) (Qcache.stats e.e_multi)

(* Live reload: swap a delta patch into the engine without a cold restart.

   The reach index is maintained incrementally (only components downstream
   of a touched node are re-closed — [Reach.patch]); cache invalidation is
   cone-scoped rather than a generation nuke. The soundness argument for
   keeping an entry with target [tout]: any query answer that changed did so
   through some path using an added or removed edge. Take the LAST changed
   edge (s, d) on such a path — the suffix from [d] to [tout] uses only
   edges present in the OLD graph (for an added edge, the suffix is
   addition-free by choice of last; for a removed edge, the old path's
   suffix is old edges by definition) — so [d], a touched endpoint, reaches
   [tout] in the old index. Contrapositive: if no touched endpoint lies in
   the old cone of [tout], no answer for [tout] changed, and the entry
   survives with its key rewritten to the new generation. Entries computed
   under [estimate_freevars] also read void-rooted distances over the whole
   graph, so they never survive a structural change.

   A new [edge_cost] (corpus delta re-derived the mined model) shifts every
   weighted cost — Usage's normalization denominator is global — so both
   caches are cleared (a counted generation nuke) and the lanes re-baked; a
   new [protocol_check] likewise invalidates Filter/Warn results wholesale.
   A [Rebuilt] patch has unstable node ids, so it too clears. *)
let engine_reload ?edge_cost ?protocol_check e (patch : Delta.patch) =
  let old_gen = e.e_gen in
  let old_reach = e.e_reach in
  let old_frozen = e.e_frozen in
  let fz =
    match edge_cost with
    | Some wcost -> Graph.rebake ~wcost patch.Delta.p_frozen
    | None -> patch.Delta.p_frozen
  in
  let new_gen = Graph.frozen_generation fz in
  let reach' =
    match old_reach with
    | Some r when e.e_prune && patch.Delta.p_mode = Delta.Spliced ->
        Some (Reach.patch ~pool:e.e_pool ~old:r ~touched:patch.Delta.p_touched fz)
    | _ -> None (* rebuilt lazily on next pruned query *)
  in
  let model_changed =
    Option.is_some edge_cost || Option.is_some protocol_check
  in
  if model_changed || patch.Delta.p_mode = Delta.Rebuilt || old_reach = None
  then begin
    Qcache.clear e.e_single;
    Qcache.clear e.e_multi
  end
  else begin
    let touched_nodes =
      let acc = ref [] in
      for u = Graph.frozen_node_count old_frozen - 1 downto 0 do
        if Reach.Bits.mem patch.Delta.p_touched u then acc := u :: !acc
      done;
      !acc
    in
    let r = Option.get old_reach in
    let cone_clean tout =
      match Graph.frozen_find_type_node old_frozen tout with
      | None -> false
      | Some dst ->
          not (List.exists (fun u -> Reach.mem r ~src:u ~target:dst) touched_nodes)
    in
    let dropped_s =
      Qcache.refresh e.e_single (fun k ->
          if
            k.sk_gen = old_gen
            && (not k.sk_settings.estimate_freevars)
            && cone_clean k.sk_tout
          then Some { k with sk_gen = new_gen }
          else None)
    in
    let dropped_m =
      Qcache.refresh e.e_multi (fun k ->
          if
            k.mk_gen = old_gen
            && (not k.mk_settings.estimate_freevars)
            && cone_clean k.mk_tout
          then Some { k with mk_gen = new_gen }
          else None)
    in
    Log.debug (fun m ->
        m "engine: reload dropped %d cached entries (cone-scoped)"
          (dropped_s + dropped_m))
  end;
  e.e_hierarchy <- patch.Delta.p_hierarchy;
  (match edge_cost with Some _ -> e.e_edge_cost <- edge_cost | None -> ());
  (match protocol_check with
  | Some _ -> e.e_protocol_check <- protocol_check
  | None -> ());
  e.e_frozen <- fz;
  e.e_reach <- reach';
  e.e_shards <- None;
  e.e_gen <- new_gen;
  e.e_graph <- lazy (Graph.of_frozen fz);
  Log.debug (fun m ->
      m "engine: reloaded (%s) — generation %d -> %d, %d touched nodes"
        (Delta.mode_string patch.Delta.p_mode)
        old_gen new_gen patch.Delta.p_touched_count)

let single_key ~gen ~settings q =
  { sk_tin = q.tin; sk_tout = q.tout; sk_settings = settings; sk_gen = gen }

let run_cached ?(settings = default_settings) e q =
  validate e;
  Qcache.find_or_add e.e_single (single_key ~gen:e.e_gen ~settings q) (fun () ->
      run ~settings ?reach:(engine_reach e) ~frozen:e.e_frozen
        ?edge_cost:e.e_edge_cost ?protocol_check:e.e_protocol_check
        ~hierarchy:e.e_hierarchy q)

(* The parallel batch replays the sequential cache protocol exactly:

   Phase A walks the input and collects the distinct keys the cache does not
   hold, in first-occurrence order, using only the effect-free [Qcache.mem].
   Phase B computes those misses across the pool — every worker reads the
   same snapshot, reach index, and warmed hierarchy, and writes nothing
   shared. Phase C then performs, sequentially and in input order, the
   identical [find_or_add] sequence the [jobs = 1] path performs, except
   that a miss takes its value from phase B instead of computing. Hits,
   misses, recency order, and evictions are therefore the same as
   sequential execution — not just the returned results. A key that phase C
   misses but phase B did not precompute (possible when replay evictions
   shuffle the cache differently than phase A predicted) is recomputed
   inline, exactly as [jobs = 1] would have. *)
let run_batch ?(settings = default_settings) ?pool e qs =
  validate e;
  let pool = match pool with Some p -> p | None -> e.e_pool in
  if Pool.jobs pool <= 1 then List.map (fun q -> (q, run_cached ~settings e q)) qs
  else begin
    Hierarchy.warm e.e_hierarchy;
    let reach = engine_reach e in
    let frozen = e.e_frozen in
    let key q = single_key ~gen:e.e_gen ~settings q in
    let solve q =
      run ~settings ?reach ~frozen ?edge_cost:e.e_edge_cost
        ?protocol_check:e.e_protocol_check ~hierarchy:e.e_hierarchy q
    in
    (* Scatter-gather: a query whose target has a package runs on that
       package group's shard — a sub-snapshot containing the target's whole
       reachability cone, so the answer is byte-identical to the full-graph
       one (test_scale.ml pins this against the jobs = 1 oracle). Queries
       with packageless targets, oversized shards, or a freevar estimator
       (which measures distances from [void] over the whole graph) fall
       back to the full snapshot. *)
    let shards = if settings.estimate_freevars then None else engine_shards e in
    let solve_routed (q, sub) =
      match sub with
      | None -> solve q
      | Some sfz ->
          (* No reach index for the shard: its whole point is that the
             sub-graph is close to the target's cone already. *)
          run ~settings ~frozen:sfz ?edge_cost:e.e_edge_cost
            ?protocol_check:e.e_protocol_check ~hierarchy:e.e_hierarchy q
    in
    let route q =
      match shards with
      | None -> None
      | Some sh -> (
          match Graph.frozen_find_type_node frozen q.tout with
          | None -> None
          | Some dst -> (
              match Shard.route sh ~target:dst with
              | None -> None
              | Some g -> Shard.sub sh g))
    in
    let seen = Hashtbl.create 64 in
    let misses =
      List.filter
        (fun q ->
          let k = key q in
          if Qcache.mem e.e_single k || Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
        qs
    in
    (* Shard sub-snapshots are forced here, sequentially, before the fan-out
       — workers only ever read published shards. *)
    let routed = List.map (fun q -> (q, route q)) misses in
    let precomputed = Hashtbl.create 64 in
    List.iter
      (fun (k, r) -> Hashtbl.replace precomputed k r)
      (Pool.map_list pool (fun ((q, _) as rq) -> (key q, solve_routed rq)) routed);
    List.map
      (fun q ->
        ( q,
          Qcache.find_or_add e.e_single (key q) (fun () ->
              match Hashtbl.find_opt precomputed (key q) with
              | Some r -> r
              | None -> solve q) ))
      qs
  end

let run_multi_cached ?(settings = default_settings) e ~vars ~tout () =
  validate e;
  let k = { mk_vars = vars; mk_tout = tout; mk_settings = settings; mk_gen = e.e_gen } in
  Qcache.find_or_add e.e_multi k (fun () ->
      run_multi ~settings ?reach:(engine_reach e) ~frozen:e.e_frozen
        ?edge_cost:e.e_edge_cost ?protocol_check:e.e_protocol_check
        ~hierarchy:e.e_hierarchy ~vars ~tout ())
