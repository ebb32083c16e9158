(* Reply checks. Every reply is compared with what the repo's
   exhaustive-strategy oracle answers for the same request: [Query.run] /
   [Assist.suggest] with [strategy = Exhaustive], uncached, on one domain,
   over the full snapshot. A query or assist request that hits the path
   cap is compared with a plain uncached run instead: under the cap the two
   strategies keep different path sets. An assist reply may differ from
   the oracle's only where a full rank-key tie leaves the choice open (see
   [tie_choice]); such replies are counted and reported. *)

module Query = Prospector.Query
module Assist = Prospector.Assist
module Graph = Prospector.Graph
module Search = Prospector.Search
module Jungloid = Prospector.Jungloid
module Rank = Prospector.Rank
module Codegen = Prospector.Codegen
module Proto = Prospector_server.Proto
module Jtype = Javamodel.Jtype

let exhaustive = { Query.default_settings with Query.strategy = Query.Exhaustive }

(* Rendered the way the daemon renders them. *)
let result_json i (r : Query.result) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("jungloid", Proto.Str (Jungloid.to_string r.Query.jungloid));
      ("code", Proto.Str r.Query.code);
    ]

let results_json rs = Proto.Arr (List.mapi result_json rs)

let query_reply rs ~truncated =
  Proto.ok_response ~id:Proto.Null ~op:"query"
    [
      ("count", Proto.Int (List.length rs));
      ("results", results_json rs);
      ("truncated", Proto.Bool truncated);
    ]

let suggestion_json i (s : Assist.suggestion) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("title", Proto.Str s.Assist.title);
      ("code", Proto.Str s.Assist.code);
      ("uses_var", match s.Assist.uses_var with Some v -> Proto.Str v | None -> Proto.Null);
    ]

let assist_reply ss =
  Proto.ok_response ~id:Proto.Null ~op:"assist"
    [
      ("count", Proto.Int (List.length ss));
      ("suggestions", Proto.Arr (List.mapi suggestion_json ss));
    ]

(* A reply line without its leading ["id"] member, which is the only part
   that differs between two replies to the same request. *)
let body line =
  match String.index_opt line ',' with
  | Some i when String.length line > 6 && String.sub line 0 6 = "{\"id\":" ->
      String.sub line i (String.length line - i)
  | _ -> line

type snapshot = {
  frozen : Prospector.Graph.frozen;
  reach : Prospector.Reach.t option;
  hierarchy : Javamodel.Hierarchy.t;
}

let snapshot_of_engine e =
  {
    frozen = Query.engine_frozen e;
    reach = Query.engine_reach e;
    hierarchy = Query.engine_hierarchy e;
  }

let context ~tout ~vars =
  {
    Assist.vars = List.map (fun (n, ty) -> (n, Jtype.ref_of_string ty)) vars;
    expected = Jtype.ref_of_string tout;
  }

(* The oracle's results for one query, and whether the path cap cut either
   strategy short — in which case the two keep different path sets and the
   plain uncached run is the reference instead. *)
let query_results s q =
  let plain, info =
    Query.run_info ?reach:s.reach ~frozen:s.frozen ~hierarchy:s.hierarchy q
  in
  let ex, ex_info =
    Query.run_info ~settings:exhaustive ~frozen:s.frozen ~hierarchy:s.hierarchy q
  in
  if info.Query.truncated || ex_info.Query.truncated then (plain, info.Query.truncated)
  else (ex, false)

(* The multi-source enumeration the exhaustive assist pipeline of
   [Query.run_multi] sorts, before its dedup: the same
   [enumerate_per_source] call on the same snapshot, sources and budget.
   [None] when the expected type is not in the graph. *)
type enumeration = {
  paths : Search.path list;
  truncated : bool;  (** the path cap cut it short *)
  void : Graph.node option;
  var_nodes : (Graph.node * string) list;
}

let enumerate s ~tout ~vars =
  let find ty = Graph.frozen_find_type_node s.frozen (Jtype.ref_of_string ty) in
  Option.map
    (fun target ->
      let var_nodes =
        List.filter_map (fun (name, ty) -> Option.map (fun n -> (n, name)) (find ty)) vars
      in
      let void = Graph.frozen_void_node s.frozen in
      let truncated = ref false in
      let paths =
        Search.Csr.enumerate_per_source s.frozen
          ~sources:(Option.to_list void @ List.map fst var_nodes)
          ~target ~slack:exhaustive.Query.slack ~limit:exhaustive.Query.limit ~truncated ()
      in
      { paths; truncated = !truncated; void; var_nodes })
    (find tout)

(* The oracle's suggestions for one assist request. As for a query, when
   the path cap cut the exhaustive enumeration short the plain uncached run
   is the reference instead. ([run_multi] reports no truncation; a
   best-first search cannot reach the cap unless the enumeration, which
   holds every path within the same budgets, does.) *)
let oracle_suggestions s ~tout ~vars =
  let ctx = context ~tout ~vars in
  match enumerate s ~tout ~vars with
  | Some { truncated = true; _ } ->
      Assist.suggest ?reach:s.reach ~frozen:s.frozen ~hierarchy:s.hierarchy ctx
  | _ -> Assist.suggest ~settings:exhaustive ~frozen:s.frozen ~hierarchy:s.hierarchy ctx

(* The body of the reply the daemon must send for [read]. *)
let expected s (read : Inputs.read) =
  let json =
    match read with
    | Inputs.Query { tin; tout } ->
        let rs, truncated = query_results s (Query.query tin tout) in
        query_reply rs ~truncated
    | Inputs.Assist { tout; vars } -> assist_reply (oracle_suggestions s ~tout ~vars)
  in
  body (Proto.to_string json)

(* Full rank-key ties in assist. [Jungloid.to_string], the textual
   tiebreak of [Rank.key], does not show a free variable's type, so two
   chains that differ only there — [IProject receiver] or [IFolder
   receiver] before [receiver.getFile(...)] — tie on every key component
   and render the same suggestion title. Both strategies keep one of them
   per source variable: best-first the first in enumeration order, and the
   exhaustive pipeline of [Query.run_multi] whichever its Hashtbl of
   (jungloid, source) pairs lists first. So at such a slot the oracle's
   code is one member of the tie, not the only correct one.

   [tie_members] lists every (source variable, rank key, code) of the
   enumeration. *)
let tie_members s ~tout ~vars =
  match enumerate s ~tout ~vars with
  | None -> []
  | Some e ->
      List.concat_map
        (fun (p : Search.path) ->
          let j = Jungloid.of_frozen_path s.frozen p in
          let key = Rank.key ~weights:exhaustive.Query.weights s.hierarchy j in
          if e.void = Some p.Search.source then [ (None, key, Codegen.to_java j) ]
          else
            List.filter_map
              (fun (n, name) ->
                if n = p.Search.source then
                  Some
                    (Some name, key, Codegen.to_java ~input:(name, Jungloid.input_type j) j)
                else None)
              e.var_nodes)
        e.paths

(* Does [line], a reply that differs from the oracle's, differ only in
   which member of a full rank-key tie it keeps? Every other byte must
   equal the oracle's: the oracle's reply is rebuilt with the reply's code
   at each slot where that code belongs to the same tie, and compared
   whole. Queries have no such slack — single-source ties keep enumeration
   order under both strategies — so a query reply never passes here. *)
let tie_choice s (read : Inputs.read) line =
  match (read, Proto.parse line) with
  | Inputs.Assist { tout; vars }, Ok reply -> (
      let ex = oracle_suggestions s ~tout ~vars in
      match Proto.member "suggestions" reply with
      | Some (Proto.Arr got) when List.length got = List.length ex ->
          let members = lazy (tie_members s ~tout ~vars) in
          let in_tie (sg : Assist.suggestion) code =
            List.exists
              (fun (v, key, c) ->
                v = sg.Assist.uses_var && c = code
                && Rank.compare_key key sg.Assist.result.Query.key = 0)
              (Lazy.force members)
          in
          let rebuilt =
            List.map2
              (fun (sg : Assist.suggestion) g ->
                match Proto.member "code" g with
                | Some (Proto.Str code) when code <> sg.Assist.code && in_tie sg code ->
                    { sg with Assist.code }
                | _ -> sg)
              ex got
          in
          body (Proto.to_string (assist_reply rebuilt)) = body line
      | _ -> false)
  | _ -> false
