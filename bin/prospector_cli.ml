(* The PROSPECTOR command-line tool: a programmer's search engine for API
   jungloids (the paper packaged the same engine inside Eclipse content
   assist). Subcommands:

     query TIN TOUT      synthesize jungloids for a (tin, tout) query
     assist TOUT         content-assist: suggest code for an expected type
     refine QUERY        narrow a ranked list by answering probe questions
     batch FILE          answer a file of queries through one cached engine
     serve               the daemon: the wire protocol over TCP or stdio
     client OP           send one request to a running daemon
     infer FILE...       suggest code for every ? hole in mini-Java source
     mine                show mining statistics and generalized examples
     lint                analyzer passes over the model, corpus and queries
     stats               graph statistics (signature vs jungloid graph)
     dot                 export a neighborhood of the graph as Graphviz
     table1              reproduce the paper's Table 1
     study               reproduce the paper's Figure 8 user study

   By default everything runs against the bundled Eclipse 2.1 / J2SE model
   and corpus; --api / --corpus load your own .japi and mini-Java files. *)

open Cmdliner

(* ---------- shared options ---------- *)

let api_files =
  Arg.(
    value & opt_all file []
    & info [ "api" ] ~docv:"FILE"
        ~doc:"Load API signatures from this .japi file (repeatable). When \
              absent, the bundled Eclipse/J2SE model is used.")

let corpus_files =
  Arg.(
    value & opt_all file []
    & info [ "corpus" ] ~docv:"FILE"
        ~doc:"Load mining corpus from this mini-Java file (repeatable). \
              When absent (and no --api), the bundled corpus is used.")

let no_mining =
  Arg.(
    value & flag
    & info [ "no-mining" ] ~doc:"Use the signature graph only (Section 3).")

let protected_flag =
  Arg.(
    value & flag
    & info [ "protected" ]
        ~doc:"Admit protected members (the paper's proposed extension).")

let max_results =
  Arg.(
    value & opt int 10
    & info
        [ "max-results"; "n"; "top" ]
        ~docv:"N" ~doc:"Result list length (the k of the top-k search).")

let slack =
  Arg.(
    value & opt int 1
    & info [ "slack" ] ~docv:"K"
        ~doc:"Enumerate paths of cost up to shortest+K (the paper uses 1).")

let verbose_flag =
  Arg.(
    value & flag
    & info [ "verbose" ] ~doc:"Log loading, mining, and query internals to stderr.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Fan work out across N domains (batch answering, corpus mining,               reach-index construction). Results are byte-identical at any               N; 1 (the default) stays fully sequential.")

(* The one check every numeric flag goes through: a one-line error naming
   the flag and the rejected value, and exit 1 — never an exception trace,
   and never a value silently wrapped or clamped (a port of 70000 would
   bind 4464). *)
let check_flag flag ~must ok got =
  if not ok then begin
    Printf.eprintf "error: --%s must be %s (got %s)\n" flag must got;
    exit 1
  end

let check_at_least flag lo n =
  check_flag flag ~must:(Printf.sprintf "at least %d" lo) (n >= lo) (string_of_int n)

let check_seconds flag ~must ok = function
  | Some s -> check_flag flag ~must (Float.is_finite s && ok s) (Printf.sprintf "%g" s)
  | None -> ()

(* A positional type argument goes through the check the wire's type-name
   fields use: a blank name is a one-line error and exit 1, never a
   trace. *)
let check_type_arg what name =
  match Prospector.Query.check_type_name ~what name with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let pool_of_jobs jobs =
  check_at_least "jobs" 1 jobs;
  Prospector_parallel.Pool.create ~jobs

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type env = {
  hierarchy : Javamodel.Hierarchy.t;
  graph : Prospector.Graph.t;
  usage : Mining.Usage.t option;
      (* mined usage model, present whenever corpus mining ran *)
  proto : Analysis.Protocol.model option;
      (* mined typestate model, present whenever corpus mining ran *)
  mined_corpus : (string * string) list;
      (* the corpus sources mining read, kept so [serve]'s live reload can
         re-enrich a rebuilt graph; [] when not mining *)
}

let load_env ?pool ~api ~corpus ~mining ~protected_ () =
  let config =
    { Prospector.Sig_graph.default_config with include_protected = protected_ }
  in
  let hierarchy =
    match api with
    | [] -> Apidata.Api.hierarchy ()
    | files -> Japi.Loader.load_files (List.map (fun f -> (f, read_file f)) files)
  in
  let graph = Prospector.Sig_graph.build ~config hierarchy in
  let corpus_sources =
    match (api, corpus) with
    | [], [] -> Apidata.Api.corpus_sources
    | _, files -> List.map (fun f -> (f, read_file f)) files
  in
  let usage = ref None in
  let proto = ref None in
  if mining && corpus_sources <> [] then begin
    let prog = Minijava.Resolve.parse_program ~api:hierarchy corpus_sources in
    ignore
      (Mining.Enrich.enrich ~include_protected:protected_ ?pool
         ~on_examples:(fun exs -> usage := Some (Mining.Usage.of_examples exs))
         graph prog);
    proto := Some (Mining.Protomine.mine prog)
  end;
  {
    hierarchy;
    graph;
    usage = !usage;
    proto = !proto;
    mined_corpus = (if mining then corpus_sources else []);
  }

let strategy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:"Search strategy: $(b,best-first) (the default: rank-ordered \
              best-first top-k, stops once the top results are certified) or \
              $(b,exhaustive) (enumerate every within-budget path, the \
              equivalence oracle). Output is byte-identical either way.")

(* A --strategy, --ranking or --protocol spelling, validated like --jobs:
   a friendly one-line error and exit 1. *)
let parse_spelling of_string = function
  | None -> None
  | Some s -> (
      match of_string s with
      | Ok v -> Some v
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1)

(* One --var binding, NAME:TYPE, as assist, refine and client read it: a
   malformed one (no colon, or nothing on one side of it) is a one-line
   error and exit 2, like the other malformed arguments those commands
   reject. The type stays a string for the wire; [typed_vars] resolves it
   for a local search. *)
let parse_var s =
  match String.index_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ ->
      Printf.eprintf "error: bad --var %S, expected NAME:TYPE\n" s;
      exit 2

let typed_vars =
  List.map (fun s ->
      let name, ty = parse_var s in
      (name, Javamodel.Jtype.ref_of_string ty))

let ranking_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ranking" ] ~docv:"NAME"
        ~doc:"Result order: $(b,paper) (the default: Section 3.2's static \
              length/crossings/specificity rule) or $(b,mined) (usage-weighted \
              probabilistic order learned from the corpus; falls back to \
              $(b,paper) with a warning when no corpus was mined). The \
              candidate set is identical either way — only the order changes.")

let protocol_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"MODE"
        ~doc:"Mined-typestate checking of synthesized jungloids: $(b,off) \
              (the default), $(b,warn) (results unchanged; call-order \
              violations against the mined automata are reported as \
              warnings) or $(b,filter) (violating jungloids are dropped \
              from the results). Falls back to $(b,off) with a warning when \
              no corpus was mined.")

let settings ~max_results ~slack ~strategy ~ranking ~protocol =
  (match Prospector.Query.check_limits ~max_results ~slack with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1);
  let base = Prospector.Query.default_settings in
  {
    base with
    Prospector.Query.max_results;
    slack;
    strategy =
      Option.value
        (parse_spelling Prospector.Query.strategy_of_string strategy)
        ~default:base.Prospector.Query.strategy;
    ranking =
      Option.value
        (parse_spelling Prospector.Query.ranking_of_string ranking)
        ~default:base.Prospector.Query.ranking;
    protocol =
      Option.value
        (parse_spelling Prospector.Query.protocol_of_string protocol)
        ~default:base.Prospector.Query.protocol;
  }

(* The usage model as the [?edge_cost] the query layer consumes; [None]
   (mining disabled, or no corpus sources) makes [Mined]
   requests fall back to [Paper] with a logged warning (the query layer
   reports configuration fallbacks at warning level, which the CLI shows
   by default). *)
let edge_cost_of env = Option.map Mining.Usage.edge_cost env.usage

(* [env.graph]'s snapshot, frozen once per command under the model
   [edge_cost_of] passes: a [Mined] search reads its weighted lanes. *)
let frozen_of env =
  Prospector.Query.freeze ?edge_cost:(edge_cost_of env) env.graph

(* The mined typestate model as the [?protocol_check] the query layer
   consumes; [None] makes [Warn]/[Filter] requests fall back to [Off] with
   the same logged-warning discipline as [Mined] ranking. *)
let protocol_check_of env =
  Option.map (fun m j -> Analysis.Protolint.violations m j) env.proto

let handle_errors f =
  try f () with
  | Japi.Error.E e ->
      Printf.eprintf "error: %s\n" (Japi.Error.to_string e);
      exit 1
  | Javamodel.Hierarchy.Unknown_type q ->
      Printf.eprintf "error: unknown type %s\n" (Javamodel.Qname.to_string q);
      exit 1

(* ---------- query ---------- *)

let print_result i (r : Prospector.Query.result) =
  Printf.printf "#%d  %s\n" (i + 1)
    (Prospector.Jungloid.to_string r.Prospector.Query.jungloid);
  let code = String.trim r.Prospector.Query.code in
  String.split_on_char '\n' code
  |> List.iter (fun line -> Printf.printf "      %s\n" line)

let query_cmd =
  let tin = Arg.(required & pos 0 (some string) None & info [] ~docv:"TIN") in
  let tout = Arg.(required & pos 1 (some string) None & info [] ~docv:"TOUT") in
  let cluster_flag =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:"Group similar jungloids (same type path) and show one \
                representative per group.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol cluster verbose tin tout =
    setup_logs verbose;
    check_type_arg "TIN" tin;
    check_type_arg "TOUT" tout;
    handle_errors (fun () ->
        let env =
          load_env ~api ~corpus ~mining:(not no_mining) ~protected_ ()
        in
        let q = Prospector.Query.query tin tout in
        let st = settings ~max_results ~slack ~strategy ~ranking ~protocol in
        let results, info =
          Prospector.Query.run_info ~settings:st ~frozen:(frozen_of env)
            ?edge_cost:(edge_cost_of env)
            ?protocol_check:(protocol_check_of env) ~hierarchy:env.hierarchy q
        in
        if info.Prospector.Query.truncated then
          Printf.eprintf
            "warning: search stopped at the %d-path limit; better-ranked \
             solutions may be missing\n"
            st.Prospector.Query.limit;
        if results = [] then print_endline "no jungloids found"
        else if cluster then
          List.iteri
            (fun i (c : Prospector.Query.cluster) ->
              Printf.printf "#%d  [%d similar]  via %s\n" (i + 1)
                c.Prospector.Query.members c.Prospector.Query.type_path;
              print_result i c.Prospector.Query.representative)
            (Prospector.Query.cluster results)
        else List.iteri print_result results)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Synthesize jungloids for a (tin, tout) query.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg
      $ cluster_flag $ verbose_flag $ tin $ tout)

(* ---------- assist ---------- *)

let assist_cmd =
  let tout = Arg.(required & pos 0 (some string) None & info [] ~docv:"TOUT") in
  let vars =
    Arg.(
      value & opt_all string []
      & info [ "var"; "v" ] ~docv:"NAME:TYPE"
          ~doc:"A visible variable, e.g. $(b,ep:org.eclipse.ui.IEditorPart) \
                (repeatable).")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol vars tout =
    check_type_arg "TOUT" tout;
    handle_errors (fun () ->
        let env = load_env ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        let ctx =
          {
            Prospector.Assist.vars = typed_vars vars;
            expected = Javamodel.Jtype.ref_of_string tout;
          }
        in
        let suggestions =
          Prospector.Assist.suggest
            ~settings:(settings ~max_results ~slack ~strategy ~ranking ~protocol)
            ~frozen:(frozen_of env) ?edge_cost:(edge_cost_of env)
            ?protocol_check:(protocol_check_of env) ~hierarchy:env.hierarchy ctx
        in
        if suggestions = [] then print_endline "no suggestions"
        else
          List.iteri
            (fun i (s : Prospector.Assist.suggestion) ->
              Printf.printf "#%d  %s%s\n" (i + 1) s.Prospector.Assist.title
                (match s.Prospector.Assist.uses_var with
                | Some v -> Printf.sprintf "   (uses %s)" v
                | None -> ""))
            suggestions)
  in
  Cmd.v
    (Cmd.info "assist" ~doc:"Content assist: suggestions for an expected type.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg $ vars
      $ tout)

(* ---------- refine ---------- *)

(* Spec-by-example disambiguation over a ranked result list, run locally
   (no daemon): synthesize the candidates exactly like query/assist would,
   then loop Probe questions until the session converges. --auto answers
   every probe the way Simstudy's programmer does (follow the branch that
   keeps the rank-1 result) — the deterministic transcript the docs and
   cram tests pin. *)

module Esession = Prospector_eval.Session
module Eprobe = Prospector_eval.Probe
module Evalue = Prospector_eval.Value

let print_refine_question n (q : Eprobe.question) =
  Printf.printf "question %d:\n" n;
  List.iter
    (fun (k, v) -> Printf.printf "  given %s = %s\n" k (Evalue.to_string v))
    q.Eprobe.env;
  print_endline "  which output do you expect?";
  List.iteri
    (fun i (g : Eprobe.group) ->
      let what =
        match g.Eprobe.answer with
        | Eprobe.Output s -> s
        | Eprobe.Unknown -> "(can't tell)"
      in
      Printf.printf "    [%d] %s   (%d candidate%s)\n" i what
        (List.length g.Eprobe.members)
        (if List.length g.Eprobe.members = 1 then "" else "s"))
    q.Eprobe.groups

let print_refine_result st =
  let best = Esession.best st in
  let live = List.length (Esession.live st) in
  let asked = Esession.questions_asked st in
  if live = 1 then
    Printf.printf "converged after %d question%s: result #%d of the ranked list\n"
      asked
      (if asked = 1 then "" else "s")
      (Esession.best_rank st + 1)
  else
    Printf.printf
      "no probe can split the remaining %d candidates; rank order decides: \
       result #%d\n"
      live
      (Esession.best_rank st + 1);
  (match best.Esession.source with
  | Some v -> Printf.printf "(uses %s)\n" v
  | None -> ());
  Printf.printf "%s\n" (Prospector.Jungloid.to_string best.Esession.result.Prospector.Query.jungloid);
  String.trim best.Esession.result.Prospector.Query.code
  |> String.split_on_char '\n'
  |> List.iter (fun line -> Printf.printf "  %s\n" line)

let refine_cmd =
  let argv =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:"Either $(b,TIN TOUT) (query-shaped) or $(b,TOUT) with \
                $(b,--var) bindings (assist-shaped).")
  in
  let vars =
    Arg.(
      value & opt_all string []
      & info [ "var"; "v" ] ~docv:"NAME:TYPE"
          ~doc:"A visible variable for the assist-shaped session (repeatable).")
  in
  let auto_flag =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:"Answer every probe automatically, following the branch that \
                keeps the rank-1 result (deterministic; what the simulated \
                study programmer does). Without it, answers are read from \
                stdin.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol verbose vars auto argv =
    setup_logs verbose;
    handle_errors (fun () ->
        let env = load_env ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        let st = settings ~max_results ~slack ~strategy ~ranking ~protocol in
        let candidates =
          match (argv, vars) with
          | [ tin; tout ], [] ->
              check_type_arg "TIN" tin;
              check_type_arg "TOUT" tout;
              let q = Prospector.Query.query tin tout in
              Prospector.Query.run ~settings:st ~frozen:(frozen_of env)
                ?edge_cost:(edge_cost_of env)
                ?protocol_check:(protocol_check_of env) ~hierarchy:env.hierarchy q
              |> List.map (fun result -> { Esession.source = None; result })
          | [ tout ], _ :: _ ->
              check_type_arg "TOUT" tout;
              let ctx =
                {
                  Prospector.Assist.vars = typed_vars vars;
                  expected = Javamodel.Jtype.ref_of_string tout;
                }
              in
              Prospector.Assist.suggest ~settings:st ~frozen:(frozen_of env)
                ?edge_cost:(edge_cost_of env)
                ?protocol_check:(protocol_check_of env) ~hierarchy:env.hierarchy ctx
              |> List.map (fun (s : Prospector.Assist.suggestion) ->
                     {
                       Esession.source = s.Prospector.Assist.uses_var;
                       result = s.Prospector.Assist.result;
                     })
          | _ ->
              Printf.eprintf
                "error: expected either TIN TOUT, or TOUT with --var bindings\n";
              exit 2
        in
        if candidates = [] then begin
          print_endline "no jungloids found";
          exit 0
        end;
        Printf.printf "%d candidate%s\n"
          (List.length candidates)
          (if List.length candidates = 1 then "" else "s");
        let desired = (List.hd candidates).Esession.result in
        let rec loop sess =
          match Esession.question sess with
          | None -> print_refine_result sess
          | Some q ->
              print_refine_question (Esession.questions_asked sess + 1) q;
              let choice =
                if auto then begin
                  match Simstudy.Programmer.answer_probe sess ~desired with
                  | Some c ->
                      Printf.printf "  answer: %d\n" c;
                      Some c
                  | None -> None
                end
                else begin
                  Printf.printf "  answer [0-%d]: %!"
                    (List.length q.Eprobe.groups - 1);
                  match input_line stdin with
                  | exception End_of_file ->
                      print_endline "";
                      None
                  | line -> (
                      match int_of_string_opt (String.trim line) with
                      | Some c -> Some c
                      | None ->
                          print_endline "  (not a number; session stopped)";
                          None)
                end
              in
              (match choice with
              | None -> print_refine_result sess
              | Some c -> (
                  match Esession.answer sess ~choice:c with
                  | Ok sess' -> loop sess'
                  | Error `Bad_choice ->
                      Printf.printf "  choice %d is out of range\n" c;
                      loop sess
                  | Error `No_question -> print_refine_result sess))
        in
        loop (Esession.start candidates))
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Disambiguate a ranked result list by answering \"Twenty \
             Questions\" probes on concrete inputs.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg
      $ verbose_flag $ vars $ auto_flag $ argv)

(* ---------- batch ---------- *)

(* Server-style operation: answer a whole file of queries through one
   Query.engine, so the reachability index is built once and repeated
   queries are LRU cache hits. The paper's engine answered one interactive
   query at a time; this is the entry point for heavy query traffic. *)

let parse_query_file path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i ->
               let tin = String.sub line 0 i in
               let tout =
                 String.trim (String.sub line (i + 1) (String.length line - i - 1))
               in
               Some (Prospector.Query.query tin tout)
           | None ->
               Printf.eprintf "error: bad query line %S, expected \"TIN TOUT\"\n" line;
               exit 1)

let batch_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"QUERIES"
          ~doc:"Query file: one $(b,TIN TOUT) pair per line; blank lines and \
                $(b,#) comments are skipped.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Run the whole batch N times (passes after the first exercise \
                the warm cache).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the query engine: run every query cold, without the \
                cache or the reachability index.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"K" ~doc:"LRU capacity of the query cache.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:"Print hit/miss/eviction counters after the batch.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol verbose file repeat no_cache cache_capacity stats_flag jobs =
    setup_logs verbose;
    check_at_least "repeat" 1 repeat;
    check_at_least "cache-capacity" 1 cache_capacity;
    let pool = pool_of_jobs jobs in
    handle_errors (fun () ->
        let env =
          load_env ~pool ~api ~corpus ~mining:(not no_mining) ~protected_ ()
        in
        let qs = parse_query_file file in
        let settings =
          settings ~max_results ~slack ~strategy ~ranking ~protocol
        in
        let edge_cost = edge_cost_of env in
        let protocol_check = protocol_check_of env in
        let engine =
          Prospector.Query.engine ~cache_capacity ~pool ?edge_cost
            ?protocol_check ~graph:env.graph ~hierarchy:env.hierarchy ()
        in
        let run_pass () =
          if no_cache then
            (* Cold queries are independent, so the fan-out is a plain map
               over the engine's frozen snapshot (baked with the same usage
               model the rank layer applies). *)
            let frozen = Prospector.Query.engine_frozen engine in
            Prospector_parallel.Pool.map_list pool
              (fun q ->
                ( q,
                  Prospector.Query.run ~settings ~frozen ?edge_cost
                    ?protocol_check ~hierarchy:env.hierarchy q ))
              qs
          else Prospector.Query.run_batch ~settings engine qs
        in
        let results = run_pass () in
        for _ = 2 to repeat do
          ignore (run_pass ())
        done;
        List.iter
          (fun ((q : Prospector.Query.t), rs) ->
            Printf.printf "(%s, %s): %d result(s)\n"
              (Javamodel.Jtype.to_string q.Prospector.Query.tin)
              (Javamodel.Jtype.to_string q.Prospector.Query.tout)
              (List.length rs);
            List.iteri print_result rs)
          results;
        if stats_flag then
          print_endline
            (Prospector.Stats.cache_to_string (Prospector.Query.engine_stats engine)))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Answer a file of queries through the cached query engine, \
             which rejects unsolvable queries with its reachability index.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag $ max_results
      $ slack $ strategy_arg $ ranking_arg $ protocol_arg $ verbose_flag $ file
      $ repeat $ no_cache $ cache_capacity $ stats_flag $ jobs_arg)

(* ---------- mine ---------- *)

let mine_cmd =
  let run api corpus jobs =
    let pool = pool_of_jobs jobs in
    handle_errors (fun () ->
        let hierarchy =
          match api with
          | [] -> Apidata.Api.hierarchy ()
          | files -> Japi.Loader.load_files (List.map (fun f -> (f, read_file f)) files)
        in
        let corpus_sources =
          match (api, corpus) with
          | [], [] -> Apidata.Api.corpus_sources
          | _, files -> List.map (fun f -> (f, read_file f)) files
        in
        let prog = Minijava.Resolve.parse_program ~api:hierarchy corpus_sources in
        let df = Mining.Dataflow.build prog in
        let examples = Mining.Extract.extract ~pool df in
        let generalized = Mining.Generalize.run examples in
        Printf.printf "corpus methods:          %d\n"
          (List.length prog.Minijava.Tast.methods);
        Printf.printf "casts in corpus:         %d\n"
          (List.length (Mining.Dataflow.casts df));
        Printf.printf "examples extracted:      %d\n" (List.length examples);
        Printf.printf "after generalization:    %d\n\n" (List.length generalized);
        List.iter
          (fun (ex : Mining.Extract.example) ->
            Printf.printf "  %s\n"
              (Prospector.Jungloid.to_string
                 (Prospector.Jungloid.make ~input:ex.Mining.Extract.input
                    ex.Mining.Extract.elems)))
          generalized;
        let model = Mining.Protomine.of_dataflow df in
        let module Protocol = Analysis.Protocol in
        Printf.printf "\nprotocol model:          %d types, %d sequences, %d transitions\n"
          (List.length (Protocol.modeled_types model))
          (Protocol.sequence_count model)
          (Protocol.transition_count model);
        List.iter
          (fun tname ->
            let obs = Protocol.observations model ~tname in
            Printf.printf "\n  %s (%d sequences%s)\n" tname obs
              (if Protocol.modeled model ~tname then ""
               else ", below evidence floor");
            List.iter
              (fun (meth, occ) ->
                let usually =
                  match Protocol.common_successor model ~tname ~meth with
                  | Some s -> Printf.sprintf "; usually followed by %s" s
                  | None -> ""
                in
                Printf.printf "    %-28s %d uses (%d first, %d last%s)\n" meth
                  occ
                  (Protocol.start_count model ~tname ~meth)
                  (Protocol.end_count model ~tname ~meth)
                  usually)
              (Protocol.methods model ~tname))
          (Protocol.modeled_types model))
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Extract and generalize example jungloids from a corpus.")
    Term.(const run $ api_files $ corpus_files $ jobs_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let run api corpus protected_ =
    handle_errors (fun () ->
        let sig_env = load_env ~api ~corpus ~mining:false ~protected_ () in
        let full_env = load_env ~api ~corpus ~mining:true ~protected_ () in
        Printf.printf "hierarchy: %d declarations\n\n"
          (Javamodel.Hierarchy.size sig_env.hierarchy);
        Printf.printf "signature graph:\n%s\n\n"
          (Prospector.Stats.to_string (Prospector.Stats.of_graph sig_env.graph));
        Printf.printf "jungloid graph (with mined examples):\n%s\n"
          (Prospector.Stats.to_string (Prospector.Stats.of_graph full_env.graph)))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Graph statistics, before and after mining.")
    Term.(const run $ api_files $ corpus_files $ protected_flag)

(* ---------- dot ---------- *)

let dot_cmd =
  let centers =
    Arg.(
      value & opt_all string []
      & info [ "center"; "c" ] ~docv:"TYPE" ~doc:"Center type(s) of the neighborhood.")
  in
  let radius = Arg.(value & opt int 1 & info [ "radius"; "r" ] ~docv:"R" ~doc:"Hops.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run api corpus no_mining protected_ centers radius output =
    handle_errors (fun () ->
        let env = load_env ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        let dot =
          match centers with
          | [] -> Prospector.Dot.full env.graph
          | cs ->
              Prospector.Dot.subgraph env.graph
                ~centers:(List.map Javamodel.Jtype.ref_of_string cs)
                ~radius
        in
        match output with
        | Some path ->
            let oc = open_out path in
            output_string oc dot;
            close_out oc;
            Printf.printf "wrote %s\n" path
        | None -> print_string dot)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export (part of) the jungloid graph as Graphviz.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag $ centers
      $ radius $ output)

(* ---------- infer ---------- *)

let infer_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Mini-Java source files containing ? holes.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol files =
    handle_errors (fun () ->
        let env = load_env ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        let sources = List.map (fun f -> (f, read_file f)) files in
        let holes = Prospector_ide.Infer.contexts ~api:env.hierarchy sources in
        if holes = [] then print_endline "no ? holes found"
        else
          (* One snapshot and reach index for the whole buffer. *)
          Prospector_ide.Infer.suggest_all
            ~settings:(settings ~max_results ~slack ~strategy ~ranking ~protocol)
            ?edge_cost:(edge_cost_of env)
            ?protocol_check:(protocol_check_of env) ~graph:env.graph
            ~hierarchy:env.hierarchy holes
          |> List.iter (fun ((h : Prospector_ide.Infer.hole), suggestions) ->
                 Printf.printf "hole in %s.%s, expecting %s (in scope: %s)\n"
                   (Javamodel.Qname.to_string h.Prospector_ide.Infer.owner)
                   h.Prospector_ide.Infer.meth
                   (Javamodel.Jtype.simple_string h.Prospector_ide.Infer.expected)
                   (String.concat ", " (List.map fst h.Prospector_ide.Infer.vars));
                 if suggestions = [] then print_endline "  no suggestions"
                 else
                   List.iteri
                     (fun i (s : Prospector.Assist.suggestion) ->
                       Printf.printf "  %d. %s\n" (i + 1) s.Prospector.Assist.title)
                     suggestions;
                 print_newline ()))
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Infer queries from ? holes in mini-Java source and suggest code.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg $ files)

(* ---------- lint ---------- *)

(* The analyzer as a standalone tool: run any subset of the three passes
   (API-model lint, corpus lint, query verification) over the same inputs
   the search uses, reporting shared diagnostics. Exit codes: 0 clean,
   1 error-severity findings (or warnings under --strict), 2 inputs failed
   to load. *)

let parse_query_spec s =
  let parts =
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  match parts with
  | [ tin; tout ] -> (tin, tout)
  | _ ->
      Printf.eprintf "error: bad --query %S, expected \"TIN,TOUT\"\n" s;
      exit 2

let lint_cmd =
  let pass_conv =
    Arg.enum
      [ ("api", `Api); ("corpus", `Corpus); ("query", `Query); ("proto", `Proto) ]
  in
  let passes =
    Arg.(
      value & opt_all pass_conv []
      & info [ "pass" ] ~docv:"PASS"
          ~doc:"Run only this pass: $(b,api) (model and graph lint), \
                $(b,corpus) (mini-Java linter), $(b,query) (solution \
                verifier) or $(b,proto) (mined-typestate protocol checks on \
                the corpus clients); repeatable. Default: api and corpus, \
                plus query when $(b,--query) is given.")
  in
  let queries =
    Arg.(
      value & opt_all string []
      & info [ "query"; "q" ] ~docv:"TIN,TOUT"
          ~doc:"Verify this query's solutions (repeatable): every ranked \
                jungloid is re-typechecked against the hierarchy and its \
                generated code is re-parsed and linted.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON report.")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings, not just errors.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol verbose passes queries json strict =
    setup_logs verbose;
    let passes =
      match passes with
      | [] -> [ `Api; `Corpus ] @ (if queries = [] then [] else [ `Query ])
      | ps -> ps
    in
    let loaded =
      try
        let env = load_env ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        let corpus_sources =
          match (api, corpus) with
          | [], [] -> Apidata.Api.corpus_sources
          | _, files -> List.map (fun f -> (f, read_file f)) files
        in
        let prog =
          if
            (List.mem `Corpus passes || List.mem `Proto passes)
            && corpus_sources <> []
          then
            Some (Minijava.Resolve.parse_program ~api:env.hierarchy corpus_sources)
          else None
        in
        Ok (env, prog)
      with
      | Japi.Error.E e -> Error (Japi.Error.to_string e)
      | Javamodel.Hierarchy.Unknown_type q ->
          Error (Printf.sprintf "unknown type %s" (Javamodel.Qname.to_string q))
      | Sys_error msg -> Error msg
    in
    match loaded with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok (env, prog) ->
        let run_pass = function
          | `Api -> Analysis.Apilint.lint ~graph:env.graph env.hierarchy
          | `Corpus -> (
              match prog with
              | None -> []
              | Some prog -> Analysis.Corpuslint.lint_program prog)
          | `Proto -> (
              match prog with
              | None -> []
              | Some prog ->
                  (* Against the bundled API, deviance is judged by the
                     bundled model, so a handful of client files under
                     --corpus are linted against what the whole shipped
                     corpus learned; with a custom --api the given corpus is
                     all the evidence there is. *)
                  let model =
                    match api with
                    | [] -> Apidata.Api.proto ()
                    | _ -> Mining.Protomine.mine prog
                  in
                  Analysis.Protolint.check model
                    (Mining.Protomine.sequences (Mining.Dataflow.build prog)))
          | `Query ->
              let frozen = frozen_of env in
              List.concat_map
                (fun spec ->
                  let tin, tout = parse_query_spec spec in
                  let q = Prospector.Query.query tin tout in
                  Prospector.Query.run
                    ~settings:
                      (settings ~max_results ~slack ~strategy ~ranking ~protocol)
                    ~frozen ?edge_cost:(edge_cost_of env)
                    ?protocol_check:(protocol_check_of env)
                    ~hierarchy:env.hierarchy q
                  |> List.concat_map (fun (r : Prospector.Query.result) ->
                         let j = r.Prospector.Query.jungloid in
                         Analysis.Verify.check env.hierarchy j
                         @ Analysis.Gencheck.check env.hierarchy j))
                queries
        in
        let ds =
          List.sort_uniq Analysis.Diagnostic.compare
            (List.concat_map run_pass passes)
        in
        if json then print_endline (Analysis.Diagnostic.list_to_json ds)
        else begin
          List.iter
            (fun d -> print_endline (Analysis.Diagnostic.to_string d))
            ds;
          print_endline (Analysis.Diagnostic.summary ds)
        end;
        let errors = Analysis.Diagnostic.count Analysis.Diagnostic.Error ds in
        let warnings =
          Analysis.Diagnostic.count Analysis.Diagnostic.Warning ds
        in
        if errors > 0 || (strict && warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the analyzer: API-model lint, corpus lint, and solution \
             verification, with a shared diagnostic report.")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg
      $ verbose_flag $ passes $ queries $ json_flag $ strict_flag)

(* ---------- serve ---------- *)

(* The daemon: load the engine once, then answer query traffic over
   newline-delimited JSON — the deployment shape the ROADMAP's "heavy
   traffic" north star asks for. See DESIGN.md "Server architecture" for
   the protocol grammar and the locking model. *)

module Proto = Prospector_server.Proto
module Service = Prospector_server.Service
module Server = Prospector_server.Server
module Metrics = Prospector_server.Metrics

let serve_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt int 7467
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port; $(b,0) picks an ephemeral one (see --port-file).")
  in
  let port_file =
    Arg.(
      value & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port here once listening (atomically) — the \
                rendezvous for scripts using an ephemeral port.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size.")
  in
  let max_request_bytes =
    Arg.(
      value & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"B"
          ~doc:"Oversized request lines get a $(b,too_large) error reply.")
  in
  let max_connections =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Queued + in-flight connection cap; excess clients get a \
                one-line $(b,busy) reply.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline: slower requests get a $(b,timeout) \
                error reply instead of their result.")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve one request line per stdin line instead of TCP (editor \
                integration).")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"K"
          ~doc:"LRU capacity of each worker's result cache.")
  in
  let session_ttl =
    Arg.(
      value & opt (some float) None
      & info [ "session-ttl" ] ~docv:"SECONDS"
          ~doc:"Evict refine sessions idle for longer than $(docv); later \
                ops on an evicted id get a $(b,session_expired) error reply. \
                Omitted = sessions only die on $(b,refine_stop) or drain.")
  in
  let watch =
    Arg.(
      value & opt (some string) None
      & info [ "watch" ] ~docv:"FILE"
          ~doc:"Poll $(docv) (a $(b,.japi) source) for modification-time \
                changes (twice a second) and apply it as a live reload \
                delta — every class it declares is added or replaced \
                in place, without restarting or dropping in-flight \
                requests.")
  in
  let run api corpus no_mining protected_ max_results slack strategy ranking
      protocol verbose host port port_file workers max_request_bytes
      max_connections deadline stdio cache_capacity session_ttl watch jobs =
    setup_logs verbose;
    check_at_least "cache-capacity" 1 cache_capacity;
    check_at_least "workers" 1 workers;
    check_flag "port" ~must:"between 0 and 65535" (port >= 0 && port <= 65535)
      (string_of_int port);
    check_at_least "max-request-bytes" 1 max_request_bytes;
    check_at_least "max-connections" 1 max_connections;
    check_seconds "deadline" ~must:"a positive, finite number of seconds"
      (fun d -> d > 0.) deadline;
    check_seconds "session-ttl" ~must:"a non-negative, finite number of seconds"
      (fun t -> t >= 0.) session_ttl;
    let pool = pool_of_jobs jobs in
    handle_errors (fun () ->
        let t0 = Unix.gettimeofday () in
        let env = load_env ~pool ~api ~corpus ~mining:(not no_mining) ~protected_ () in
        Printf.eprintf "graph: built in %.3f s\n%!" (Unix.gettimeofday () -. t0);
        let engine =
          Prospector.Query.engine ~pool ?edge_cost:(edge_cost_of env)
            ?protocol_check:(protocol_check_of env) ~graph:env.graph
            ~hierarchy:env.hierarchy ()
        in
        (* ---- live reload (DESIGN §9) ----
           A structural reload of a mining server rebuilds the way startup
           built: the signature graph of the patched hierarchy, enriched
           from the startup corpus and frozen under the startup usage
           model, which the engine keeps for life. The service injects this
           into [Delta.apply], since the server library must not depend on
           the mining layer. *)
        let config =
          { Prospector.Sig_graph.default_config with include_protected = protected_ }
        in
        let rebuild =
          (* bound outside the closure, which must not keep [env.graph], the
             builder graph the engine has frozen, alive for the daemon's life *)
          let mined = env.mined_corpus and wcost = edge_cost_of env in
          if no_mining then None
          else
            Some
              (fun hierarchy ->
                let g = Prospector.Sig_graph.build ~config hierarchy in
                if mined <> [] then
                  ignore
                    (Mining.Enrich.enrich ~include_protected:protected_ ~pool g
                       (Minijava.Resolve.parse_program ~api:hierarchy mined));
                ignore (Prospector.Graph.void_node g);
                Prospector.Graph.freeze ?wcost g)
        in
        let service =
          Service.create
            ~settings:(settings ~max_results ~slack ~strategy ~ranking ~protocol)
            ~cache_capacity ?vet:
              (Option.map (fun m j -> Analysis.Protolint.vet m j) env.proto)
            ~graph_config:config ?rebuild ?deadline_s:deadline
            ?session_ttl_s:session_ttl ~engine ()
        in
        (* --watch: a polling thread that feeds the file through the same
           reload op a client would send, so metrics and gauges apply. *)
        (match watch with
        | None -> ()
        | Some path ->
            let mtime p =
              try Some (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> None
            in
            let last = ref (mtime path) in
            ignore
              (Thread.create
                 (fun () ->
                   while not (Service.shutdown_requested service) do
                     Thread.delay 0.5;
                     let m = mtime path in
                     if m <> !last then begin
                       last := m;
                       match m with
                       | None -> ()  (* deleted; reload when it reappears *)
                       | Some _ -> (
                           try
                             let src = read_file path in
                             let resp =
                               Service.handle service
                                 {
                                   Proto.id = Proto.Null;
                                   req =
                                     Proto.Reload { japi = Some src; remove = [] };
                                 }
                             in
                             match Proto.member "ok" resp with
                             | Some (Proto.Bool true) ->
                                 let geti k =
                                   match Proto.member k resp with
                                   | Some (Proto.Int i) -> i
                                   | _ -> 0
                                 in
                                 let mode =
                                   match Proto.member "mode" resp with
                                   | Some (Proto.Str s) -> s
                                   | _ -> "?"
                                 in
                                 Printf.eprintf
                                   "watch: reloaded %s — %d op(s) (%s), \
                                    generation %d\n%!"
                                   path (geti "ops") mode (geti "generation")
                             | _ ->
                                 let msg =
                                   match
                                     Option.bind (Proto.member "error" resp)
                                       (Proto.member "message")
                                   with
                                   | Some (Proto.Str s) -> s
                                   | _ -> "?"
                                 in
                                 Printf.eprintf
                                   "watch: reload of %s rejected: %s\n%!" path
                                   msg
                           with e ->
                             Printf.eprintf "watch: cannot read %s: %s\n%!" path
                               (Printexc.to_string e))
                     end
                   done)
                 ()));
        if stdio then begin
          (* SIGINT drains exactly like the shutdown op: in-flight refine
             sessions answer shutting_down, the loop exits after the next
             reply. *)
          let drain _ = Service.request_shutdown service in
          (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain)
           with Invalid_argument _ -> ());
          Server.serve_stdio ~max_request_bytes service
        end
        else begin
          let config =
            {
              Server.default_config with
              Server.host;
              port;
              workers;
              max_request_bytes;
              max_connections;
              port_file;
            }
          in
          let server = Server.create ~config service in
          (* SIGINT and SIGTERM drain exactly like the shutdown op *)
          let drain _ = Server.shutdown server in
          (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain)
           with Invalid_argument _ -> ());
          (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
           with Invalid_argument _ -> ());
          Server.run server
        end;
        prerr_string (Metrics.render (Service.metrics service)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived query daemon (newline-delimited JSON over TCP).")
    Term.(
      const run $ api_files $ corpus_files $ no_mining $ protected_flag
      $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg
      $ verbose_flag $ host $ port $ port_file $ workers $ max_request_bytes
      $ max_connections $ deadline $ stdio $ cache_capacity $ session_ttl
      $ watch $ jobs_arg)

(* ---------- client ---------- *)

(* One request per invocation, against a running daemon. The default
   rendering mirrors the one-shot subcommands byte for byte (the cram suite
   diffs them); --json prints the raw response line. *)

let client_render_results rs =
  List.iteri
    (fun i r ->
      let get k =
        match Proto.member k r with Some (Proto.Str s) -> s | _ -> ""
      in
      Printf.printf "#%d  %s\n" (i + 1) (get "jungloid");
      String.trim (get "code") |> String.split_on_char '\n'
      |> List.iter (fun line -> Printf.printf "      %s\n" line))
    rs

let client_render response =
  let member k = Proto.member k response in
  let arr k = match member k with Some (Proto.Arr xs) -> xs | _ -> [] in
  match member "op" with
  | Some (Proto.Str "query") ->
      let rs = arr "results" in
      if rs = [] then print_endline "no jungloids found"
      else client_render_results rs;
      (match member "truncated" with
      | Some (Proto.Bool true) ->
          prerr_endline
            "warning: the daemon's search hit its path limit; better-ranked \
             solutions may be missing"
      | _ -> ())
  | Some (Proto.Str "assist") ->
      let ss = arr "suggestions" in
      if ss = [] then print_endline "no suggestions"
      else
        List.iteri
          (fun i s ->
            let title =
              match Proto.member "title" s with Some (Proto.Str x) -> x | _ -> ""
            in
            let uses =
              match Proto.member "uses_var" s with
              | Some (Proto.Str v) -> Printf.sprintf "   (uses %s)" v
              | _ -> ""
            in
            Printf.printf "#%d  %s%s\n" (i + 1) title uses)
          ss
  | Some (Proto.Str "batch") ->
      List.iter
        (fun a ->
          let get k =
            match Proto.member k a with Some (Proto.Str s) -> s | _ -> ""
          in
          let rs = match Proto.member "results" a with
            | Some (Proto.Arr xs) -> xs
            | _ -> []
          in
          Printf.printf "(%s, %s): %d result(s)\n" (get "tin") (get "tout")
            (List.length rs);
          client_render_results rs)
        (arr "answers")
  | Some (Proto.Str "lint") ->
      List.iter
        (fun d ->
          let get k =
            match Proto.member k d with
            | Some (Proto.Str s) -> s
            | Some (Proto.Int i) -> string_of_int i
            | _ -> ""
          in
          let where =
            match Proto.member "subject" d with
            | Some (Proto.Str s) -> s
            | _ -> Printf.sprintf "%s:%s:%s" (get "file") (get "line") (get "col")
          in
          Printf.printf "%s: %s[%s]: %s\n" where (get "severity") (get "code")
            (get "message"))
        (arr "diagnostics");
      let count k =
        match member k with Some (Proto.Int i) -> i | _ -> 0
      in
      Printf.printf "%d error(s), %d warning(s)\n" (count "errors") (count "warnings")
  | Some (Proto.Str "refine_start")
  | Some (Proto.Str "refine_answer")
  | Some (Proto.Str "refine_status") -> (
      let int k = match member k with Some (Proto.Int i) -> i | _ -> 0 in
      (match member "session" with
      | Some (Proto.Str s) ->
          Printf.printf "session %s: %d candidate(s), %d live, %d question(s) \
                         answered\n"
            s (int "candidates") (int "live") (int "asked")
      | _ -> ());
      match (member "question", member "result") with
      | Some q, _ ->
          List.iter
            (fun b ->
              let get k =
                match Proto.member k b with Some (Proto.Str s) -> s | _ -> ""
              in
              Printf.printf "given %s = %s\n" (get "source") (get "value"))
            (match Proto.member "inputs" q with
            | Some (Proto.Arr xs) -> xs
            | _ -> []);
          print_endline "which output do you expect?";
          List.iter
            (fun c ->
              let choice =
                match Proto.member "choice" c with
                | Some (Proto.Int i) -> i
                | _ -> 0
              in
              let count =
                match Proto.member "count" c with
                | Some (Proto.Int i) -> i
                | _ -> 0
              in
              let what =
                match Proto.member "output" c with
                | Some (Proto.Str s) -> s
                | _ -> "(can't tell)"
              in
              Printf.printf "  [%d] %s   (%d candidate%s)\n" choice what count
                (if count = 1 then "" else "s"))
            (match Proto.member "choices" q with
            | Some (Proto.Arr xs) -> xs
            | _ -> [])
      | None, Some r ->
          let get k =
            match Proto.member k r with Some (Proto.Str s) -> s | _ -> ""
          in
          let rank =
            match Proto.member "rank" r with Some (Proto.Int i) -> i | _ -> 0
          in
          Printf.printf "converged: result #%d\n" rank;
          (match Proto.member "source" r with
          | Some (Proto.Str v) -> Printf.printf "(uses %s)\n" v
          | _ -> ());
          Printf.printf "%s\n" (get "jungloid");
          String.trim (get "code") |> String.split_on_char '\n'
          |> List.iter (fun line -> Printf.printf "  %s\n" line)
      | None, None -> ())
  | Some (Proto.Str "refine_stop") -> (
      match member "session" with
      | Some (Proto.Str s) -> Printf.printf "stopped %s\n" s
      | _ -> print_endline "stopped")
  | Some (Proto.Str "reload") ->
      let int k = match member k with Some (Proto.Int i) -> i | _ -> 0 in
      let mode =
        match member "mode" with Some (Proto.Str s) -> s | _ -> "?"
      in
      Printf.printf
        "reloaded: %d op(s) applied (%s), %d node(s) touched, generation %d\n"
        (int "ops") mode (int "touched") (int "generation")
  | Some (Proto.Str "stats") ->
      let int_at path k =
        match Option.bind (member path) (Proto.member k) with
        | Some (Proto.Int i) -> i
        | _ -> 0
      in
      (match member "requests" with
      | Some (Proto.Int n) -> Printf.printf "requests: %d\n" n
      | _ -> ());
      Printf.printf "graph: %d nodes, %d edges\n" (int_at "graph" "nodes")
        (int_at "graph" "edges");
      Printf.printf "cache: %d/%d entries, %d hits, %d misses\n"
        (int_at "cache" "entries") (int_at "cache" "capacity")
        (int_at "cache" "hits") (int_at "cache" "misses");
      (match member "truncated_queries" with
      | Some (Proto.Int n) when n > 0 -> Printf.printf "truncated queries: %d\n" n
      | _ -> ());
      (match member "sessions" with
      | Some (Proto.Int n) when n > 0 -> Printf.printf "sessions: %d\n" n
      | _ -> ());
      (* gauges appear only once the daemon has set one (a reload or a
         refine session), so pre-reload output is unchanged *)
      (match member "gauges" with
      | Some (Proto.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match v with
              | Proto.Int i -> Printf.printf "%s: %d\n" k i
              | _ -> ())
            kvs
      | _ -> ())
  | Some (Proto.Str "health") | Some (Proto.Str "shutdown") -> (
      match member "status" with
      | Some (Proto.Str s) -> print_endline s
      | _ -> print_endline "ok")
  | _ -> print_endline (Proto.to_string response)

let client_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon host.")
  in
  let port =
    Arg.(value & opt int 7467 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let port_file =
    Arg.(
      value & opt (some file) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Read the port from this file (written by $(b,serve --port-file)).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw response line.")
  in
  let vars =
    Arg.(
      value & opt_all string []
      & info [ "var"; "v" ] ~docv:"NAME:TYPE" ~doc:"Visible variable for $(b,assist).")
  in
  let remove_args =
    Arg.(
      value & opt_all string []
      & info [ "remove" ] ~docv:"QNAME"
          ~doc:"For $(b,reload): drop this fully qualified class (repeatable).")
  in
  let argv =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"OP"
          ~doc:"One of: $(b,query TIN TOUT), $(b,assist TOUT), $(b,batch FILE), \
                $(b,lint TIN TOUT), $(b,refine-start TIN TOUT) (or \
                $(b,refine-start TOUT) with $(b,--var)), $(b,refine-answer \
                SESSION CHOICE), $(b,refine-status SESSION), $(b,refine-stop \
                SESSION), $(b,reload FILE.japi) (with $(b,--remove)), \
                $(b,stats), $(b,health), $(b,shutdown), $(b,raw LINE).")
  in
  let run max_results slack strategy ranking protocol host port port_file
      json_flag vars remove argv =
    let port =
      match port_file with
      | None -> port
      | Some f -> (
          match int_of_string_opt (String.trim (read_file f)) with
          | Some p -> p
          | None ->
              Printf.eprintf "error: %s does not contain a port number\n" f;
              exit 2)
    in
    (* Validate locally so a typo fails fast; the encoder sends the
       canonical spelling. *)
    let overrides =
      {
        Proto.max_results = Some max_results;
        slack = Some slack;
        strategy = parse_spelling Prospector.Query.strategy_of_string strategy;
        ranking = parse_spelling Prospector.Query.ranking_of_string ranking;
        protocol = parse_spelling Prospector.Query.protocol_of_string protocol;
      }
    in
    let line =
      let envelope req = Proto.to_string (Proto.envelope_to_json { Proto.id = Proto.Null; req }) in
      match argv with
      | [ "query"; tin; tout ] ->
          envelope (Proto.Query { tin; tout; overrides })
      | [ "assist"; tout ] ->
          envelope (Proto.Assist { tout; vars = List.map parse_var vars; overrides })
      | [ "batch"; file ] ->
          let pairs =
            parse_query_file file
            |> List.map (fun (q : Prospector.Query.t) ->
                   ( Javamodel.Jtype.to_string q.Prospector.Query.tin,
                     Javamodel.Jtype.to_string q.Prospector.Query.tout ))
          in
          envelope (Proto.Batch { pairs; overrides })
      | [ "lint"; tin; tout ] -> envelope (Proto.Lint { tin; tout })
      | [ "refine-start"; tin; tout ] when vars = [] ->
          envelope (Proto.Refine_start { tin = Some tin; tout; vars = []; overrides })
      | [ "refine-start"; tout ] when vars <> [] ->
          envelope
            (Proto.Refine_start
               { tin = None; tout; vars = List.map parse_var vars; overrides })
      | [ "refine-answer"; session; choice ] -> (
          match int_of_string_opt choice with
          | Some choice -> envelope (Proto.Refine_answer { session; choice })
          | None ->
              Printf.eprintf "error: bad choice %S, expected a number\n" choice;
              exit 2)
      | [ "refine-status"; session ] -> envelope (Proto.Refine_status { session })
      | [ "refine-stop"; session ] -> envelope (Proto.Refine_stop { session })
      | "reload" :: rest ->
          let japi =
            match rest with
            | [] -> None
            | [ file ] -> Some (read_file file)
            | _ ->
                Printf.eprintf
                  "error: reload takes at most one .japi file (plus --remove)\n";
                exit 2
          in
          if japi = None && remove = [] then begin
            Printf.eprintf "error: reload needs a .japi file or --remove\n";
            exit 2
          end;
          envelope (Proto.Reload { japi; remove })
      | [ "stats" ] -> envelope Proto.Stats
      | [ "health" ] -> envelope Proto.Health
      | [ "shutdown" ] -> envelope Proto.Shutdown
      | [ "raw"; line ] -> line
      | _ ->
          Printf.eprintf
            "error: bad request; see prospector client --help for the op forms\n";
          exit 2
    in
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let ic, oc =
      try Unix.open_connection addr
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot connect to %s:%d: %s\n" host port
          (Unix.error_message e);
        exit 2
    in
    output_string oc (line ^ "\n");
    flush oc;
    let response_line =
      try input_line ic
      with End_of_file ->
        Printf.eprintf "error: daemon closed the connection without replying\n";
        exit 2
    in
    (try Unix.shutdown_connection ic with Unix.Unix_error _ -> ());
    close_in_noerr ic;
    if json_flag then print_endline response_line
    else
      match Proto.parse response_line with
      | Error msg ->
          Printf.eprintf "error: unparsable response: %s\n" msg;
          exit 2
      | Ok response -> (
          match Proto.member "ok" response with
          | Some (Proto.Bool true) -> client_render response
          | _ ->
              let get path k =
                match Option.bind (Proto.member path response) (Proto.member k) with
                | Some (Proto.Str s) -> s
                | _ -> "?"
              in
              Printf.eprintf "error[%s]: %s\n" (get "error" "code")
                (get "error" "message");
              (* reload rejections carry typed per-op details *)
              (match Proto.member "errors" response with
              | Some (Proto.Arr errs) ->
                  List.iter
                    (fun e ->
                      let s k =
                        match Proto.member k e with
                        | Some (Proto.Str s) -> s
                        | _ -> "?"
                      in
                      let idx =
                        match Proto.member "index" e with
                        | Some (Proto.Int i) -> i
                        | _ -> 0
                      in
                      Printf.eprintf "  op %d (%s %s): %s\n" idx (s "op")
                        (s "subject") (s "reason"))
                    errs
              | _ -> ());
              exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running prospector daemon and print the reply.")
    Term.(
      const run $ max_results $ slack $ strategy_arg $ ranking_arg $ protocol_arg
      $ host $ port $ port_file $ json_flag $ vars $ remove_args $ argv)

(* ---------- table1 ---------- *)

let table1_cmd =
  let run () =
    let graph = Apidata.Api.default_graph () in
    let hierarchy = Apidata.Api.hierarchy () in
    let ms = Apidata.Problems.run_all ~graph ~hierarchy () in
    Printf.printf "%-48s %-6s %-6s %-8s\n" "Programming problem" "paper" "ours" "time(s)";
    List.iter
      (fun (m : Apidata.Problems.measured) ->
        Printf.printf "%-48s %-6s %-6s %.3f\n"
          m.Apidata.Problems.problem.Apidata.Problems.description
          (match m.Apidata.Problems.problem.Apidata.Problems.paper with
          | Apidata.Problems.Rank r -> string_of_int r
          | Apidata.Problems.Not_found -> "No")
          (match m.Apidata.Problems.rank with
          | Some r -> string_of_int r
          | None -> "No")
          m.Apidata.Problems.time_s)
      ms;
    let found = List.length (List.filter Apidata.Problems.found ms) in
    Printf.printf "\nfound %d of %d (paper: 18 of 20)\n" found (List.length ms)
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1.") Term.(const run $ const ())

(* ---------- study ---------- *)

let study_cmd =
  let seed = Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED") in
  let users = Arg.(value & opt int 13 & info [ "users" ] ~docv:"N") in
  let run seed users =
    let graph = Apidata.Api.default_graph () in
    let hierarchy = Apidata.Api.hierarchy () in
    let s = Simstudy.Study_sim.simulate ~seed ~users ~graph ~hierarchy Apidata.Study.all in
    print_string (Simstudy.Study_sim.render_figure8 s)
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Reproduce the Figure 8 user study (simulated).")
    Term.(const run $ seed $ users)

(* Cmdliner reads every token that starts with '-' as an option, so
   [--deadline -1] and [-n -1] fail on an unknown option [-1] (usage text,
   exit 124) before the flag check can name the value. No option is
   spelled [-<digit>], and every short option takes a value, so joining
   such a token onto the option before it ([--deadline=-1], [-n-1])
   changes only command lines that fail today. Tokens after [--] are
   positional and left alone. *)
let join_negative_values argv =
  let long a =
    String.length a > 2 && String.starts_with ~prefix:"--" a && not (String.contains a '=')
  in
  let short a =
    String.length a = 2 && a.[0] = '-'
    && match a.[1] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false
  in
  let negative a = String.length a > 1 && a.[0] = '-' && a.[1] >= '0' && a.[1] <= '9' in
  let rec go acc = function
    | "--" :: rest -> List.rev_append acc ("--" :: rest)
    | flag :: v :: rest when long flag && negative v -> go ((flag ^ "=" ^ v) :: acc) rest
    | flag :: v :: rest when short flag && negative v -> go ((flag ^ v) :: acc) rest
    | a :: rest -> go (a :: acc) rest
    | [] -> List.rev acc
  in
  Array.of_list (go [] (Array.to_list argv))

let () =
  let doc = "jungloid mining: helping to navigate the API jungle" in
  let info = Cmd.info "prospector" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval ~argv:(join_negative_values Sys.argv)
       (Cmd.group info
          [
            query_cmd;
            assist_cmd;
            refine_cmd;
            batch_cmd;
            serve_cmd;
            client_cmd;
            infer_cmd;
            mine_cmd;
            lint_cmd;
            stats_cmd;
            dot_cmd;
            table1_cmd;
            study_cmd;
          ]))
