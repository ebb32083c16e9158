(* A deliberately naive reference search over the mutable graph, for the
   tests to hold the CSR kernels of [Prospector.Search] against, and the
   query pipeline on top of it ([run], [run_multi]) for [Query]'s shared
   consumer. It shares no code with them: distances are a Bellman-Ford
   fixpoint over [Graph.iter_edges], enumeration is a plain recursive DFS
   over [Graph.succs] with the kernels' exclusions (no cycles, no cost-0
   path, nothing past the target) and their [limit]/[truncated] rules, and
   the pipeline sorts, dedups and filters whole lists. Fast enough for the
   small worlds the tests build, and no faster. *)

module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Search = Prospector.Search
module Query = Prospector.Query
module Jungloid = Prospector.Jungloid

(* Relax every edge [(u, v, c)] that [dir] yields until nothing improves. *)
let fixpoint g ~starts ~dir =
  let n = Graph.node_count g in
  let d = Array.make n max_int in
  List.iter (fun s -> if s >= 0 && s < n then d.(s) <- 0) starts;
  let changed = ref true in
  while !changed do
    changed := false;
    Graph.iter_edges g (fun e ->
        let u, v, c = dir e in
        if d.(u) < max_int && d.(u) + c < d.(v) then begin
          d.(v) <- d.(u) + c;
          changed := true
        end)
  done;
  d

let distances_from g ~sources =
  fixpoint g ~starts:sources ~dir:(fun e ->
      (e.Graph.src, e.Graph.dst, Elem.cost e.Graph.elem))

let weighted_distances_to g ~target ~cost =
  fixpoint g ~starts:[ target ] ~dir:(fun e ->
      (e.Graph.dst, e.Graph.src, cost e.Graph.elem))

let distances_to g ~target = weighted_distances_to g ~target ~cost:Elem.cost

let shortest_cost g ~sources ~target =
  let d = distances_from g ~sources in
  if target >= 0 && target < Array.length d && d.(target) < max_int then
    Some d.(target)
  else None

(* Every acyclic path from each source to [target] within that source's
   budget, in DFS order over [Graph.succs], at most [limit] in all. The
   exact remaining distance prunes only subtrees that cannot finish in
   budget, so it changes no output, only the running time. *)
let paths g ~sources ~target ~budget_of ~limit ~truncated =
  let dist_to = distances_to g ~target in
  let count = ref 0 and found = ref [] in
  let rec go source ~budget u cost on_path rev_edges =
    if !count < limit then begin
      if u = target && rev_edges <> [] && cost > 0 then begin
        incr count;
        found := { Search.source; edges = List.rev rev_edges } :: !found
      end;
      if u <> target || rev_edges = [] then
        List.iter
          (fun (e : Graph.edge) ->
            let v = e.Graph.dst and c = cost + Elem.cost e.Graph.elem in
            if (not (List.mem v on_path)) && dist_to.(v) < max_int
               && c + dist_to.(v) <= budget
            then go source ~budget v c (v :: on_path) (e :: rev_edges))
          (Graph.succs g u)
    end
  in
  List.iter
    (fun s ->
      if s >= 0 && s < Graph.node_count g && dist_to.(s) < max_int then
        go s ~budget:(budget_of dist_to s) s 0 [ s ] [])
    (List.sort_uniq compare sources);
  (match truncated with Some r -> if !count >= limit then r := true | None -> ());
  List.rev !found

let enumerate_per_source g ~sources ~target ?(slack = 1) ?(limit = 4096)
    ?truncated () =
  if target < 0 || target >= Graph.node_count g then []
  else
    paths g ~sources ~target ~limit ~truncated ~budget_of:(fun d s -> d.(s) + slack)

(* The paper's pipeline over the naive enumeration, for whole-query
   comparisons. [inputs] pairs each source node with the variable it stands
   for ([None] for [tin] or [void]). Every path within its source's budget
   becomes one (variable, jungloid) pair per variable of its source; the
   distinct pairs, in enumeration order, are sorted stably by (rank key,
   variable); the first pair of each (variable, rendering) is offered to
   [keep], which stands where the verifier and the protocol filter drop
   chains; the first [max_results] survivors are the answer. *)
let pipeline ~settings ?edge_cost ~keep g ~hierarchy ~inputs ~target =
  let first_by key xs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x -> (not (Hashtbl.mem seen (key x))) && (Hashtbl.add seen (key x) (); true))
      xs
  in
  enumerate_per_source g ~sources:(List.map fst inputs) ~target
    ~slack:settings.Query.slack ~limit:settings.Query.limit ()
  |> List.concat_map (fun (p : Search.path) ->
         let j =
           Jungloid.make ~input:(Graph.node_type g p.source)
             (List.map (fun e -> e.Graph.elem) p.edges)
         in
         List.filter_map
           (fun (n, var) -> if n = p.source then Some (var, j) else None)
           inputs)
  |> first_by Fun.id
  |> List.map (fun (var, j) ->
         (Prospector.Rank.key ~weights:settings.Query.weights ?edge_cost hierarchy j, var, j))
  |> List.stable_sort (fun (ka, va, _) (kb, vb, _) ->
         match Prospector.Rank.compare_key ka kb with 0 -> compare va vb | c -> c)
  |> List.map (fun (_, var, j) -> (var, j))
  |> first_by (fun (var, j) -> (var, Jungloid.to_expression j))
  |> List.filter (fun (_, j) -> keep j)
  |> List.filteri (fun i _ -> i < settings.Query.max_results)

(* [Query.run]'s answer: the one-input pipeline from [tin]. *)
let run ?(settings = Query.default_settings) ?edge_cost ?(keep = fun _ -> true) g
    ~hierarchy (q : Query.t) =
  match (Graph.find_type_node g q.tin, Graph.find_type_node g q.tout) with
  | Some src, Some dst ->
      List.map snd
        (pipeline ~settings ?edge_cost ~keep g ~hierarchy ~inputs:[ (src, None) ]
           ~target:dst)
  | _ -> []

(* [Query.run_multi]'s answer: the pipeline from [void] and every variable
   whose type has a node. *)
let run_multi ?(settings = Query.default_settings) ?edge_cost ?(keep = fun _ -> true) g
    ~hierarchy ~vars ~tout =
  match Graph.find_type_node g tout with
  | None -> []
  | Some dst ->
      let input (ty, var) = Option.map (fun n -> (n, var)) (Graph.find_type_node g ty) in
      let inputs =
        List.filter_map input
          ((Javamodel.Jtype.Void, None)
          :: List.map (fun (name, ty) -> (ty, Some name)) vars)
      in
      pipeline ~settings ?edge_cost ~keep g ~hierarchy ~inputs ~target:dst
