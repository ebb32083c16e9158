module Query = Prospector.Query
module Qcache = Prospector.Qcache
module Graph = Prospector.Graph
module Delta = Prospector.Delta
module Jungloid = Prospector.Jungloid
module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname
module Hierarchy = Javamodel.Hierarchy

(* What a reader needs, captured at one graph generation: the graph, its
   reach index, and the model that ranks and vets answers over it — the
   hierarchy (warmed before publication, so readers on many domains only
   read its memos), the usage model baked into the snapshot's weighted
   lanes, the protocol checker and the lint vetting pass. Readers take the
   whole record with one [Atomic.get] and never look back at the engine, so
   a concurrent reload can at worst give them the previous, internally
   consistent, snapshot. *)
type snapshot = {
  s_gen : int;
  s_frozen : Graph.frozen;
  s_reach : Prospector.Reach.t option;
  s_hierarchy : Hierarchy.t;
  s_edge_cost : (Prospector.Elem.t -> int) option;
  s_protocol_check : (Jungloid.t -> string list) option;
  s_vet : (Jungloid.t -> Analysis.Diagnostic.t list) option;
}

(* Per-worker result cache. The engine's LRU mutates on reads, so sharing it
   across lock-free readers is impossible; instead each transport worker owns
   one of these. One cache holds all three read shapes — a variant key keeps
   them from colliding while letting hot ops steal capacity from cold ones. *)
type lkey =
  | Lquery of { tin : Jtype.t; tout : Jtype.t; settings : Query.settings }
  | Lassist of {
      vars : (string * Jtype.t) list;
      tout : Jtype.t;
      settings : Query.settings;
    }
  | Llint of { tin : Jtype.t; tout : Jtype.t; settings : Query.settings }

type lval =
  | Vresults of Query.result list * bool  (* results, truncated *)
  | Vsuggest of Prospector.Assist.suggestion list
  | Vlint of Analysis.Diagnostic.t list

(* [lgen] is the generation every entry of [lcache] describes. Only the
   owning worker writes either field; the stats op reads them from other
   domains (stale at worst, never torn). *)
type local = { lcache : (lkey, lval) Qcache.t; mutable lgen : int }

(* One refine session: the pure {!Prospector_eval.Session} state plus the
   bookkeeping TTL eviction needs. Mutated only under [sessions_lock]. *)
type session = {
  sess_id : string;
  mutable sess_state : Prospector_eval.Session.t;
  mutable sess_touched : float;  (* Unix time of the last refine op on it *)
}

type t = {
  eng : Query.engine;
  snap : snapshot Atomic.t;
  publish : Mutex.t;  (* serializes reloads: engine touches and publication *)
  cache_capacity : int;  (* entries per worker cache *)
  locals : local list ref;  (* every cache handed out, for the stats op *)
  locals_lock : Mutex.t;
  mets : Metrics.t;
  base_settings : Query.settings;
  graph_config : Prospector.Sig_graph.config;
      (* the config the engine's graph was built with — [Delta.apply] must
         rebuild under the same one or the oracle breaks *)
  rebuild : (Hierarchy.t -> Graph.frozen) option;
      (* the cold enriched build the server would do at startup, from a
         patched hierarchy; used in place of [Delta]'s signature-only
         rebuild so mined (spliced) nodes and edges survive a reload *)
  reloads : int Atomic.t;
  deadline_s : float option;
  stop : bool Atomic.t;
  truncated_queries : int Atomic.t;
      (* how many query computations hit [settings.limit]; cache hits of an
         already-truncated result do not re-count *)
  sessions : (string, session) Hashtbl.t;
      (* live refine sessions; the one piece of cross-request state. All
         access goes through [sessions_lock] — session ops are cheap (probe
         selection over <= max_results candidates) next to query cost, so
         a plain mutex cannot become the bottleneck the snapshot scheme
         exists to avoid *)
  sessions_lock : Mutex.t;
  session_counter : int Atomic.t;
  session_ttl_s : float option;  (* [None] = sessions never expire *)
}

(* Call with [publish] held (or before the service is shared). [vet] is
   the protocol vetting for the lint op, injected at [create] so this
   library never depends on the mining layer that learns the model. *)
let take_snapshot ~vet engine =
  let hierarchy = Query.engine_hierarchy engine in
  Hierarchy.warm hierarchy;
  let frozen = Query.engine_frozen engine in
  {
    s_gen = Graph.frozen_generation frozen;
    s_frozen = frozen;
    s_reach = Query.engine_reach engine;
    s_hierarchy = hierarchy;
    s_edge_cost = Query.engine_edge_cost engine;
    s_protocol_check = Query.engine_protocol_check engine;
    s_vet = vet;
  }

let create ?(settings = Query.default_settings) ?(cache_capacity = 256) ?vet
    ?(graph_config = Prospector.Sig_graph.default_config) ?rebuild
    ?deadline_s ?session_ttl_s ~engine () =
  if cache_capacity < 1 then invalid_arg "Service.create: cache_capacity must be >= 1";
  {
    eng = engine;
    snap = Atomic.make (take_snapshot ~vet engine);
    publish = Mutex.create ();
    cache_capacity;
    locals = ref [];
    locals_lock = Mutex.create ();
    mets = Metrics.create ();
    base_settings = settings;
    graph_config;
    rebuild;
    reloads = Atomic.make 0;
    deadline_s;
    stop = Atomic.make false;
    truncated_queries = Atomic.make 0;
    sessions = Hashtbl.create 16;
    sessions_lock = Mutex.create ();
    session_counter = Atomic.make 0;
    session_ttl_s;
  }

let engine t = t.eng

let metrics t = t.mets

let shutdown_requested t = Atomic.get t.stop

let with_sessions t f =
  Mutex.lock t.sessions_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sessions_lock) f

(* Call with [sessions_lock] held. *)
let publish_session_gauge t =
  Metrics.set_gauge t.mets "refine_sessions" (Hashtbl.length t.sessions)

let live_sessions t = with_sessions t (fun () -> Hashtbl.length t.sessions)

(* Drop every session whose idle time exceeds the TTL. Run at the top of
   each refine op, with the lock held. *)
let sweep_sessions t now =
  match t.session_ttl_s with
  | None -> ()
  | Some ttl ->
      let dead =
        Hashtbl.fold
          (fun id s acc -> if now -. s.sess_touched >= ttl then id :: acc else acc)
          t.sessions []
      in
      List.iter (Hashtbl.remove t.sessions) dead;
      if dead <> [] then publish_session_gauge t

let request_shutdown t =
  Atomic.set t.stop true;
  (* Drain-time cleanup: the sessions die with the server; reject the
     stragglers with [shutting_down], not [session_expired]. *)
  with_sessions t (fun () ->
      if Hashtbl.length t.sessions > 0 then begin
        Hashtbl.reset t.sessions;
        publish_session_gauge t
      end)

(* The published snapshot. [reload_locked] is its only publisher. *)
let current t = Atomic.get t.snap

let local t =
  let l =
    { lcache = Qcache.create ~capacity:t.cache_capacity (); lgen = (current t).s_gen }
  in
  Mutex.lock t.locals_lock;
  t.locals := l :: !(t.locals);
  Mutex.unlock t.locals_lock;
  l

(* ---------- response payloads ---------- *)

let result_json i (r : Query.result) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("jungloid", Proto.Str (Jungloid.to_string r.Query.jungloid));
      ("code", Proto.Str r.Query.code);
    ]

let results_json rs =
  Proto.Arr (List.mapi result_json rs)

let suggestion_json i (s : Prospector.Assist.suggestion) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("title", Proto.Str s.Prospector.Assist.title);
      ("code", Proto.Str s.Prospector.Assist.code);
      ( "uses_var",
        match s.Prospector.Assist.uses_var with
        | Some v -> Proto.Str v
        | None -> Proto.Null );
    ]

let diagnostic_json (d : Analysis.Diagnostic.t) =
  let where =
    match d.Analysis.Diagnostic.where with
    | Analysis.Diagnostic.Source l ->
        [
          ("file", Proto.Str l.Minijava.Tast.file);
          ("line", Proto.Int l.Minijava.Tast.line);
          ("col", Proto.Int l.Minijava.Tast.col);
        ]
    | Analysis.Diagnostic.Subject s -> [ ("subject", Proto.Str s) ]
  in
  Proto.Obj
    ([
       ( "severity",
         Proto.Str (Analysis.Diagnostic.severity_string d.Analysis.Diagnostic.severity)
       );
       ("code", Proto.Str d.Analysis.Diagnostic.code);
     ]
    @ where
    @ [ ("message", Proto.Str d.Analysis.Diagnostic.message) ])

let cache_json stats =
  Proto.Obj
    [
      ("entries", Proto.Int stats.Prospector.Qcache.s_entries);
      ("capacity", Proto.Int stats.Prospector.Qcache.s_capacity);
      ("hits", Proto.Int stats.Prospector.Qcache.s_hits);
      ("misses", Proto.Int stats.Prospector.Qcache.s_misses);
      ("hit_rate", Proto.Float (Prospector.Qcache.hit_rate stats));
      ("evictions", Proto.Int stats.Prospector.Qcache.s_evictions);
      ("invalidations", Proto.Int stats.Prospector.Qcache.s_invalidations);
    ]

(* ---------- snapshot reads ---------- *)

(* Run a read on the snapshot, memoized in the worker's cache when it has
   one. Without a [local] (direct library callers, tests) the read simply
   computes — still lock-free, just uncached. The first read of another
   generation empties the cache (one invalidation, counted only when there
   was something to drop): no entry of an older model can ever hit again,
   so keeping them would only hold LRU capacity. *)
let memo local snap key compute =
  match local with
  | None -> compute ()
  | Some l ->
      if l.lgen <> snap.s_gen then begin
        if Qcache.length l.lcache > 0 then Qcache.clear l.lcache;
        l.lgen <- snap.s_gen
      end;
      Qcache.find_or_add l.lcache key compute

let query_results t local snap ~settings q =
  let compute () =
    let rs, info =
      (* The engine froze this snapshot with the usage model captured next
         to it, so the model passed here matches the baked weighted costs. *)
      Query.run_info ~settings ?reach:snap.s_reach ~frozen:snap.s_frozen
        ?edge_cost:snap.s_edge_cost ?protocol_check:snap.s_protocol_check
        ~hierarchy:snap.s_hierarchy q
    in
    if info.Query.truncated then Atomic.incr t.truncated_queries;
    Vresults (rs, info.Query.truncated)
  in
  let key = Lquery { tin = q.Query.tin; tout = q.Query.tout; settings } in
  match memo local snap key compute with
  | Vresults (rs, truncated) -> (rs, truncated)
  | _ -> assert false

let assist_suggestions local snap ~settings (ctx : Prospector.Assist.context) =
  let compute () =
    Vsuggest
      (Prospector.Assist.suggest ~settings ~frozen:snap.s_frozen ?reach:snap.s_reach
         ?edge_cost:snap.s_edge_cost ?protocol_check:snap.s_protocol_check
         ~hierarchy:snap.s_hierarchy ctx)
  in
  let key =
    Lassist
      { vars = ctx.Prospector.Assist.vars; tout = ctx.Prospector.Assist.expected; settings }
  in
  match memo local snap key compute with Vsuggest ss -> ss | _ -> assert false

let lint_diagnostics t local snap q =
  let hierarchy = snap.s_hierarchy in
  let vet = match snap.s_vet with Some v -> v | None -> fun _ -> [] in
  let compute () =
    Vlint
      (fst (query_results t local snap ~settings:t.base_settings q)
      |> List.concat_map (fun (r : Query.result) ->
             Analysis.Verify.check hierarchy r.Query.jungloid
             @ Analysis.Gencheck.check hierarchy r.Query.jungloid
             @ vet r.Query.jungloid)
      |> List.sort_uniq Analysis.Diagnostic.compare)
  in
  let key = Llint { tin = q.Query.tin; tout = q.Query.tout; settings = t.base_settings } in
  match memo local snap key compute with Vlint ds -> ds | _ -> assert false

(* Every worker cache's counters — the caches that serve reads (the
   engine's own is never read here). Foreign caches may be mid-mutation on
   other domains while we read; the counters are plain ints (stale at
   worst, never torn), fine for monitoring output. Entries count only in
   caches at the published generation: a worker that has not read since
   the last reload still holds the old model's entries, which will never
   hit and go on its next read. *)
let cache_stats t =
  let gen = (current t).s_gen in
  Mutex.lock t.locals_lock;
  let ls = !(t.locals) in
  Mutex.unlock t.locals_lock;
  List.fold_left
    (fun acc l ->
      let s = Qcache.stats l.lcache in
      Qcache.merge_stats acc
        (if l.lgen = gen then s else { s with Qcache.s_entries = 0 }))
    {
      Qcache.s_hits = 0;
      s_misses = 0;
      s_evictions = 0;
      s_invalidations = 0;
      s_entries = 0;
      s_capacity = 0;
    }
    ls

(* ---------- refine sessions ---------- *)

module Esession = Prospector_eval.Session
module Eprobe = Prospector_eval.Probe
module Evalue = Prospector_eval.Value

let question_json (q : Eprobe.question) =
  Proto.Obj
    [
      ( "inputs",
        Proto.Arr
          (List.map
             (fun (k, v) ->
               Proto.Obj
                 [
                   ("source", Proto.Str k);
                   ("value", Proto.Str (Evalue.to_string v));
                 ])
             q.Eprobe.env) );
      ( "choices",
        Proto.Arr
          (List.mapi
             (fun i (g : Eprobe.group) ->
               Proto.Obj
                 [
                   ("choice", Proto.Int i);
                   ( "output",
                     match g.Eprobe.answer with
                     | Eprobe.Output s -> Proto.Str s
                     | Eprobe.Unknown -> Proto.Null );
                   ("count", Proto.Int (List.length g.Eprobe.members));
                 ])
             q.Eprobe.groups) );
    ]

(* Rendered exactly like a query result (same fields, original rank), plus
   the assist source variable when there is one. *)
let refine_candidate_json rank (c : Esession.candidate) =
  match (result_json rank c.Esession.result, c.Esession.source) with
  | Proto.Obj fields, Some v -> Proto.Obj (fields @ [ ("source", Proto.Str v) ])
  | j, _ -> j

let session_payload sess =
  let st = sess.sess_state in
  let base =
    [
      ("session", Proto.Str sess.sess_id);
      ("candidates", Proto.Int (List.length (Esession.candidates st)));
      ("live", Proto.Int (List.length (Esession.live st)));
      ("asked", Proto.Int (Esession.questions_asked st));
      ("converged", Proto.Bool (Esession.converged st));
    ]
  in
  match Esession.question st with
  | Some q -> base @ [ ("question", question_json q) ]
  | None ->
      base @ [ ("result", refine_candidate_json (Esession.best_rank st) (Esession.best st)) ]

let draining_response ~id =
  Proto.error_response ~id Proto.Shutting_down
    "server is draining; refine sessions are closed"

let expired_response ~id session =
  Proto.error_response ~id Proto.Session_expired
    (Printf.sprintf "unknown or expired session %S" session)

(* ---------- live reload ---------- *)

(* Turn the request's [.japi] text and removal list into a [Delta] op list.
   The text is parsed and resolved standalone (names not declared in it fall
   back to java.lang or close over as opaque synthetics — write fully
   qualified names for types the delta does not itself declare); each class
   it declares is added if the server does not know the name, replaced
   otherwise. Synthetic closure fillers never clobber a declaration the
   server already has. *)
let ops_of_reload t ~japi ~remove =
  let removed q = List.exists (fun r -> String.equal r (Qname.to_string q)) remove in
  let removals = List.map (fun q -> Delta.Remove_class (Qname.of_string q)) remove in
  match japi with
  | None -> Ok removals
  | Some src -> (
      match Japi.Loader.load_string ~file:"<reload>" src with
      | exception Japi.Error.E e -> Error (Japi.Error.to_string e)
      | dh ->
          let h = Query.engine_hierarchy t.eng in
          let ops =
            Hierarchy.fold dh ~init:[] ~f:(fun acc (d : Javamodel.Decl.t) ->
                if Qname.equal d.Javamodel.Decl.dname Qname.object_qname then acc
                else if
                  Hierarchy.mem h d.Javamodel.Decl.dname
                  && not (removed d.Javamodel.Decl.dname)
                then
                  if d.Javamodel.Decl.synthetic then acc
                  else Delta.Replace_class d :: acc
                else Delta.Add_class d :: acc)
          in
          (* removals first, so a delta that removes and redeclares one name
             reads as a structural replace (the adds above already treat the
             removed name as fresh) *)
          Ok (removals @ List.rev ops))

let delta_error_json (e : Delta.error) =
  Proto.Obj
    [
      ("index", Proto.Int e.Delta.index);
      ("op", Proto.Str e.Delta.op_name);
      ("subject", Proto.Str e.Delta.subject);
      ("reason", Proto.Str e.Delta.reason);
    ]

(* A [bad_request] whose error object carries the typed per-delta failures,
   so a client can point at the exact op instead of re-reading a prose
   message. *)
let delta_errors_response ~id errs =
  match
    Proto.error_response ~id Proto.Bad_request
      (Printf.sprintf "delta rejected: %d invalid op(s)" (List.length errs))
  with
  | Proto.Obj fields ->
      Proto.Obj (fields @ [ ("errors", Proto.Arr (List.map delta_error_json errs)) ])
  | j -> j

(* The whole reload, called with [publish] held. Order matters: validate and
   patch first (all-or-nothing — a rejected delta must leave no trace), then
   swap the engine and publish. Readers keep answering off the previous
   snapshot until the single [Atomic.set]. An enriched server's structural
   reload builds through the injected cold-build closure, inside
   [Delta.apply]: [Delta]'s own rebuild is signature-only and would silently
   drop the spliced mined examples. That closure re-resolves the mined
   corpus against the patched hierarchy, so a delta that removes or
   reshapes a class the corpus uses fails there, as a [Japi.Error.E]. *)
let reload_locked t ~id ~japi ~remove =
  match ops_of_reload t ~japi ~remove with
  | Error msg -> Proto.error_response ~id Proto.Bad_request msg
  | Ok ops -> (
      let wcost =
        match Query.engine_edge_cost t.eng with
        | Some f -> f
        | None -> Graph.default_wcost
      in
      match
        Delta.apply ~config:t.graph_config ~wcost ?rebuild:t.rebuild
          ~hierarchy:(Query.engine_hierarchy t.eng) ~frozen:(Query.engine_frozen t.eng)
          ops
      with
      | exception Japi.Error.E e ->
          Proto.error_response ~id Proto.Bad_request
            ("delta rejected: the mined corpus no longer resolves: "
            ^ Japi.Error.to_string e)
      | Error errs -> delta_errors_response ~id errs
      | Ok patch ->
          Query.engine_reload t.eng patch;
          let s = take_snapshot ~vet:(current t).s_vet t.eng in
          Atomic.set t.snap s;
          (* Worker caches are left alone: touching a foreign worker's
             cache here would race with its own reads. Each one empties
             itself on its first read of this generation. *)
          let n = Atomic.fetch_and_add t.reloads 1 + 1 in
          Metrics.set_gauge t.mets "graph_generation" s.s_gen;
          Metrics.set_gauge t.mets "reloads_applied" n;
          Proto.ok_response ~id ~op:"reload"
            [
              ("ops", Proto.Int patch.Delta.p_ops);
              ("mode", Proto.Str (Delta.mode_string patch.Delta.p_mode));
              ("touched", Proto.Int patch.Delta.p_touched_count);
              ("generation", Proto.Int s.s_gen);
            ])

(* ---------- dispatch ---------- *)

let op_name = function
  | Proto.Query _ -> "query"
  | Proto.Assist _ -> "assist"
  | Proto.Batch _ -> "batch"
  | Proto.Lint _ -> "lint"
  | Proto.Refine_start _ -> "refine_start"
  | Proto.Refine_answer _ -> "refine_answer"
  | Proto.Refine_status _ -> "refine_status"
  | Proto.Refine_stop _ -> "refine_stop"
  | Proto.Reload _ -> "reload"
  | Proto.Stats -> "stats"
  | Proto.Health -> "health"
  | Proto.Shutdown -> "shutdown"

let settings_for t (o : Proto.overrides) =
  let s = t.base_settings in
  {
    s with
    Query.max_results = Option.value o.Proto.max_results ~default:s.Query.max_results;
    slack = Option.value o.Proto.slack ~default:s.Query.slack;
    strategy = Option.value o.Proto.strategy ~default:s.Query.strategy;
    ranking = Option.value o.Proto.ranking ~default:s.Query.ranking;
    protocol = Option.value o.Proto.protocol ~default:s.Query.protocol;
  }

let context ~tout vars =
  {
    Prospector.Assist.vars = List.map (fun (name, ty) -> (name, Jtype.ref_of_string ty)) vars;
    expected = Jtype.ref_of_string tout;
  }

let dispatch ?local t ~id req =
  match req with
  | Proto.Query { tin; tout; overrides } ->
      let settings = settings_for t overrides in
      let q = Query.query tin tout in
      let rs, truncated = query_results t local (current t) ~settings q in
      Proto.ok_response ~id ~op:"query"
        [
          ("count", Proto.Int (List.length rs));
          ("results", results_json rs);
          ("truncated", Proto.Bool truncated);
        ]
  | Proto.Assist { tout; vars; overrides } ->
      let settings = settings_for t overrides in
      let suggestions =
        assist_suggestions local (current t) ~settings (context ~tout vars)
      in
      Proto.ok_response ~id ~op:"assist"
        [
          ("count", Proto.Int (List.length suggestions));
          ("suggestions", Proto.Arr (List.mapi suggestion_json suggestions));
        ]
  | Proto.Batch { pairs; overrides } ->
      let settings = settings_for t overrides in
      let qs = List.map (fun (tin, tout) -> Query.query tin tout) pairs in
      (* One snapshot for the whole batch: every answer describes the same
         graph generation even if a republication lands mid-batch.
         Cross-request parallelism comes from the worker domains; fanning a
         single request out as well would oversubscribe them. *)
      let snap = current t in
      let answers = List.map (fun q -> (q, query_results t local snap ~settings q)) qs in
      Proto.ok_response ~id ~op:"batch"
        [
          ( "answers",
            Proto.Arr
              (List.map
                 (fun ((q : Query.t), (rs, truncated)) ->
                   Proto.Obj
                     [
                       ("tin", Proto.Str (Jtype.to_string q.Query.tin));
                       ("tout", Proto.Str (Jtype.to_string q.Query.tout));
                       ("count", Proto.Int (List.length rs));
                       ("results", results_json rs);
                       ("truncated", Proto.Bool truncated);
                     ])
                 answers) );
        ]
  | Proto.Lint { tin; tout } ->
      let q = Query.query tin tout in
      let ds = lint_diagnostics t local (current t) q in
      Proto.ok_response ~id ~op:"lint"
        [
          ("diagnostics", Proto.Arr (List.map diagnostic_json ds));
          ("errors", Proto.Int (Analysis.Diagnostic.count Analysis.Diagnostic.Error ds));
          ( "warnings",
            Proto.Int (Analysis.Diagnostic.count Analysis.Diagnostic.Warning ds) );
        ]
  | Proto.Refine_start { tin; tout; vars; overrides } -> (
      (* Shutdown check first: during a drain the table has been cleared
         and must stay empty, so the typed reply is [shutting_down] — never
         [session_expired], never [internal]. *)
      if shutdown_requested t then draining_response ~id
      else
        let settings = settings_for t overrides in
        let snap = current t in
        let candidates =
          match tin with
          | Some tin ->
              (* The query op's own computation and cache entry: the
                 session's candidates ARE the query reply's results. *)
              fst (query_results t local snap ~settings (Query.query tin tout))
              |> List.map (fun r -> { Esession.source = None; result = r })
          | None ->
              assist_suggestions local snap ~settings (context ~tout vars)
              |> List.map (fun (s : Prospector.Assist.suggestion) ->
                     {
                       Esession.source = s.Prospector.Assist.uses_var;
                       result = s.Prospector.Assist.result;
                     })
        in
        match candidates with
        | [] ->
            (* nothing to disambiguate and nothing worth a session id *)
            Proto.ok_response ~id ~op:"refine_start"
              [
                ("session", Proto.Null);
                ("candidates", Proto.Int 0);
                ("live", Proto.Int 0);
                ("asked", Proto.Int 0);
                ("converged", Proto.Bool true);
              ]
        | _ ->
            let now = Unix.gettimeofday () in
            let sess =
              {
                sess_id =
                  Printf.sprintf "r%d" (Atomic.fetch_and_add t.session_counter 1 + 1);
                sess_state = Esession.start candidates;
                sess_touched = now;
              }
            in
            with_sessions t (fun () ->
                sweep_sessions t now;
                Hashtbl.replace t.sessions sess.sess_id sess;
                publish_session_gauge t);
            Proto.ok_response ~id ~op:"refine_start" (session_payload sess))
  | Proto.Refine_answer { session; choice } ->
      if shutdown_requested t then draining_response ~id
      else
        let now = Unix.gettimeofday () in
        with_sessions t (fun () ->
            sweep_sessions t now;
            match Hashtbl.find_opt t.sessions session with
            | None -> expired_response ~id session
            | Some sess -> (
                sess.sess_touched <- now;
                match Esession.answer sess.sess_state ~choice with
                | Error `No_question ->
                    Proto.error_response ~id Proto.Bad_request
                      "session has already converged; no question is pending"
                | Error `Bad_choice ->
                    Proto.error_response ~id Proto.Bad_request
                      (Printf.sprintf "choice %d is out of range" choice)
                | Ok st ->
                    sess.sess_state <- st;
                    Proto.ok_response ~id ~op:"refine_answer"
                      (session_payload sess)))
  | Proto.Refine_status { session } ->
      if shutdown_requested t then draining_response ~id
      else
        (* a status read does not refresh the TTL *)
        with_sessions t (fun () ->
            sweep_sessions t (Unix.gettimeofday ());
            match Hashtbl.find_opt t.sessions session with
            | None -> expired_response ~id session
            | Some sess ->
                Proto.ok_response ~id ~op:"refine_status" (session_payload sess))
  | Proto.Refine_stop { session } ->
      if shutdown_requested t then draining_response ~id
      else
        with_sessions t (fun () ->
            sweep_sessions t (Unix.gettimeofday ());
            match Hashtbl.find_opt t.sessions session with
            | None -> expired_response ~id session
            | Some _ ->
                Hashtbl.remove t.sessions session;
                publish_session_gauge t;
                Proto.ok_response ~id ~op:"refine_stop"
                  [ ("session", Proto.Str session); ("stopped", Proto.Bool true) ])
  | Proto.Reload { japi; remove } ->
      if shutdown_requested t then draining_response ~id
      else begin
        Mutex.lock t.publish;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.publish)
          (fun () -> reload_locked t ~id ~japi ~remove)
      end
  | Proto.Stats ->
      let snap = current t in
      let graph_stats = Prospector.Stats.of_frozen snap.s_frozen in
      Proto.ok_response ~id ~op:"stats"
        ([
           ("uptime_s", Proto.Float (Metrics.uptime_s t.mets));
           ("requests", Proto.Int (Metrics.total_requests t.mets));
           ("truncated_queries", Proto.Int (Atomic.get t.truncated_queries));
           ("sessions", Proto.Int (live_sessions t));
           ( "graph",
             Proto.Obj
               [
                 ("nodes", Proto.Int graph_stats.Prospector.Stats.nodes);
                 ("edges", Proto.Int graph_stats.Prospector.Stats.edges);
                 ("generation", Proto.Int snap.s_gen);
               ] );
           ("cache", cache_json (cache_stats t));
           ("ops", Metrics.ops_json t.mets);
         ]
        @
        (* only once a gauge exists, so servers that never reload (or
           refine) keep their exact old reply shape *)
        match Metrics.gauges t.mets with
        | [] -> []
        | _ -> [ ("gauges", Metrics.gauges_json t.mets) ])
  | Proto.Health ->
      Proto.ok_response ~id ~op:"health"
        [
          ("status", Proto.Str "ok");
          ("uptime_s", Proto.Float (Metrics.uptime_s t.mets));
        ]
  | Proto.Shutdown ->
      request_shutdown t;
      Proto.ok_response ~id ~op:"shutdown" [ ("status", Proto.Str "draining") ]

let deadline_exceeded t elapsed =
  match t.deadline_s with Some d -> elapsed > d | None -> false

let handle ?local t ({ Proto.id; req } : Proto.envelope) =
  let t0 = Unix.gettimeofday () in
  let response =
    match dispatch ?local t ~id req with
    | resp ->
        let elapsed = Unix.gettimeofday () -. t0 in
        (* Cooperative deadline: never serve a result that took longer than
           the deadline (see the mli for what this does and does not bound). *)
        if deadline_exceeded t elapsed then
          Proto.error_response ~id Proto.Timeout
            (Printf.sprintf "request exceeded the %.3f s deadline"
               (Option.get t.deadline_s))
        else resp
    | exception exn ->
        Proto.error_response ~id Proto.Internal (Printexc.to_string exn)
  in
  let ok = match Proto.member "ok" response with Some (Proto.Bool b) -> b | _ -> false in
  Metrics.record t.mets ~op:(op_name req) ~ok (Unix.gettimeofday () -. t0);
  response

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let handle_line ?local t line =
  let response =
    match Proto.parse line with
    | Error msg ->
        Metrics.record t.mets ~op:"invalid" ~ok:false 0.0;
        Proto.error_response ~id:Proto.Null Proto.Bad_request
          ("malformed request: " ^ msg)
    | Ok j -> (
        let id = Option.value (Proto.member "id" j) ~default:Proto.Null in
        match Proto.request_of_json j with
        | Error msg ->
            Metrics.record t.mets ~op:"invalid" ~ok:false 0.0;
            let code =
              if starts_with ~prefix:"unknown op" msg then Proto.Unknown_op
              else Proto.Bad_request
            in
            Proto.error_response ~id code msg
        | Ok envelope -> handle ?local t envelope)
  in
  Proto.to_string response
