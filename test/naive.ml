(* A deliberately naive reference search over the mutable graph, for the
   tests to hold the CSR kernels of [Prospector.Search] against, and the
   query pipeline on top of it ([run], [run_multi]) for [Query]'s shared
   consumer. It shares no code with them: distances are a Bellman-Ford
   fixpoint over [Graph.iter_edges], enumeration is a plain recursive DFS
   over [Graph.succs] with the kernels' exclusions (no cycles, no cost-0
   path, nothing past the target) and their [limit]/[truncated] rules, and
   the pipeline sorts, dedups and truncates whole lists. Fast enough for the
   small worlds the tests build, and no faster.

   Its [builder] keeps every edge in one list and finds duplicates with
   [List.exists], for [Graph]'s lockstep duplicate check to be held
   against.

   It renders with its own [Printf] renderers too ([to_java],
   [to_expression], [to_string]): plain folds from the input outward that
   re-format the whole expression at every step, sharing nothing with the
   production one-pass buffer writers, so a rendering bug cannot hide by
   showing on both sides of a comparison. *)

module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Search = Prospector.Search
module Query = Prospector.Query
module Jungloid = Prospector.Jungloid
module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname
module Member = Javamodel.Member

(* ---------- reference renderers ---------- *)

let keywords =
  [
    "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch"; "char";
    "class"; "const"; "continue"; "default"; "do"; "double"; "else"; "enum";
    "extends"; "false"; "final"; "finally"; "float"; "for"; "goto"; "if";
    "implements"; "import"; "instanceof"; "int"; "interface"; "long"; "native";
    "new"; "null"; "package"; "private"; "protected"; "public"; "return";
    "short"; "static"; "strictfp"; "super"; "switch"; "synchronized"; "this";
    "throw"; "throws"; "transient"; "true"; "try"; "void"; "volatile"; "while";
  ]

let safe_name base =
  if base = "class" then "clazz"
  else if List.mem base keywords then base ^ "_"
  else base

let var_name_of_type ty =
  let simple = Jtype.simple_string ty in
  let simple =
    match String.index_opt simple '[' with
    | Some i -> String.sub simple 0 i ^ "s"
    | None -> simple
  in
  let simple =
    if
      String.length simple >= 2
      && simple.[0] = 'I'
      && simple.[1] = Char.uppercase_ascii simple.[1]
      && simple.[1] <> Char.lowercase_ascii simple.[1]
    then String.sub simple 1 (String.length simple - 1)
    else simple
  in
  if simple = "" then "v"
  else
    safe_name
      (String.make 1 (Char.lowercase_ascii simple.[0])
      ^ String.sub simple 1 (String.length simple - 1))

(* Every name handed out maps to the last suffix tried with it as a base;
   a suffixed name that is already taken is skipped. *)
let fresh used base =
  match Hashtbl.find_opt used base with
  | None ->
      Hashtbl.replace used base 1;
      base
  | Some n ->
      let n = ref (n + 1) in
      while Hashtbl.mem used (Printf.sprintf "%s%d" base !n) do
        incr n
      done;
      let name = Printf.sprintf "%s%d" base !n in
      Hashtbl.replace used base !n;
      Hashtbl.replace used name 1;
      name

let prim_default = function
  | Jtype.Boolean -> "false"
  | Jtype.Char -> "'\\0'"
  | Jtype.Float | Jtype.Double -> "0.0"
  | Jtype.Byte | Jtype.Short | Jtype.Int | Jtype.Long -> "0"

(* [Codegen.to_java]: a fold from the input outward, one statement per
   non-widening elem. *)
let to_java ?input ?(qualified = false) (j : Jungloid.t) =
  let tyname = if qualified then Jtype.to_string else Jtype.simple_string in
  let cname = if qualified then Qname.to_string else Qname.simple in
  let used = Hashtbl.create 16 in
  let buf = Buffer.create 256 in
  let input_var =
    match (input, j.Jungloid.input) with
    | _, Jtype.Void -> ""
    | Some (name, _), _ ->
        Hashtbl.replace used name 1;
        name
    | None, ty -> fresh used (var_name_of_type ty)
  in
  let free_slot (pname, ty) =
    match ty with
    | Jtype.Prim p -> prim_default p
    | _ ->
        let base =
          if String.length pname > 0 && not (String.length pname > 3 && String.sub pname 0 3 = "arg")
          then safe_name pname
          else var_name_of_type ty
        in
        let v = fresh used base in
        Buffer.add_string buf
          (Printf.sprintf "%s %s; // free variable\n" (tyname ty) v);
        v
  in
  let render_args params ~input_slot ~expr =
    let arg i (pname, ty) =
      match input_slot with
      | Elem.Param j when i = j -> expr
      | _ -> free_slot (pname, ty)
    in
    "(" ^ String.concat ", " (List.mapi arg params) ^ ")"
  in
  let emit_stmt ty rhs =
    let v = fresh used (var_name_of_type ty) in
    Buffer.add_string buf (Printf.sprintf "%s %s = %s;\n" (tyname ty) v rhs);
    v
  in
  ignore
    (List.fold_left
       (fun cur e ->
         match e with
         | Elem.Widen _ -> cur
         | Elem.Downcast { to_; _ } ->
             emit_stmt to_ (Printf.sprintf "(%s) %s" (tyname to_) cur)
         | Elem.Field_access { owner; field } ->
             let rhs =
               if field.Member.fstatic then
                 Printf.sprintf "%s.%s" (cname owner) field.Member.fname
               else Printf.sprintf "%s.%s" cur field.Member.fname
             in
             emit_stmt field.Member.ftype rhs
         | Elem.Static_call { owner; meth; input = slot } ->
             emit_stmt meth.Member.ret
               (Printf.sprintf "%s.%s%s" (cname owner) meth.Member.mname
                  (render_args meth.Member.params ~input_slot:slot ~expr:cur))
         | Elem.Ctor_call { owner; ctor; input = slot } ->
             emit_stmt (Jtype.ref_ owner)
               (Printf.sprintf "new %s%s" (cname owner)
                  (render_args ctor.Member.cparams ~input_slot:slot ~expr:cur))
         | Elem.Instance_call { owner; meth; input = slot } ->
             let recv =
               match slot with
               | Elem.Receiver -> cur
               | _ -> free_slot ("receiver", Jtype.ref_ owner)
             in
             emit_stmt meth.Member.ret
               (Printf.sprintf "%s.%s%s" recv meth.Member.mname
                  (render_args meth.Member.params ~input_slot:slot ~expr:cur)))
       input_var j.Jungloid.elems);
  Buffer.contents buf

let expr_args params ~input ~expr =
  let arg i (name, ty) =
    match input with
    | Elem.Param j when i = j -> expr
    | _ -> (
        match ty with
        | Jtype.Prim p -> (
            match p with
            | Jtype.Boolean -> "false"
            | Jtype.Char -> "'\\0'"
            | Jtype.Float | Jtype.Double -> "0.0"
            | _ -> "0")
        | _ -> name)
  in
  "(" ^ String.concat ", " (List.mapi arg params) ^ ")"

(* [Jungloid.to_expression]: each elem re-formats the whole expression so
   far. *)
let to_expression (t : Jungloid.t) =
  let start = match t.Jungloid.input with Jtype.Void -> "" | _ -> "x" in
  List.fold_left
    (fun expr e ->
      match e with
      | Elem.Field_access { owner; field } ->
          if field.Member.fstatic then
            Printf.sprintf "%s.%s" (Qname.simple owner) field.Member.fname
          else Printf.sprintf "%s.%s" expr field.Member.fname
      | Elem.Static_call { owner; meth; input } ->
          Printf.sprintf "%s.%s%s" (Qname.simple owner) meth.Member.mname
            (expr_args meth.Member.params ~input ~expr)
      | Elem.Ctor_call { owner; ctor; input } ->
          Printf.sprintf "new %s%s" (Qname.simple owner)
            (expr_args ctor.Member.cparams ~input ~expr)
      | Elem.Instance_call { meth; input; _ } -> (
          match input with
          | Elem.Receiver ->
              Printf.sprintf "%s.%s%s" expr meth.Member.mname
                (expr_args meth.Member.params ~input:Elem.No_input ~expr)
          | _ ->
              Printf.sprintf "receiver.%s%s" meth.Member.mname
                (expr_args meth.Member.params ~input ~expr))
      | Elem.Widen _ -> expr
      | Elem.Downcast { to_; _ } ->
          Printf.sprintf "((%s) %s)" (Jtype.simple_string to_) expr)
    start t.Jungloid.elems

let to_string (t : Jungloid.t) =
  let binder = match t.Jungloid.input with Jtype.Void -> "λ(). " | _ -> "λx. " in
  Printf.sprintf "%s%s : %s -> %s" binder (to_expression t)
    (Jtype.simple_string t.Jungloid.input)
    (Jtype.simple_string (Jungloid.output_type t))

(* ---------- reference builder ---------- *)

(* [Graph]'s builder with the duplicate check done the obvious way: every
   inserted edge kept in one list, newest first, and searched with
   [List.exists]. A node's successors and predecessors are that list
   filtered, so they come newest first, as [Graph.succs] and [Graph.preds]
   promise. Types intern through an association list. *)
type builder = {
  mutable b_types : (Jtype.t * Graph.node) list;
  mutable b_nodes : int;
  mutable b_edges : Graph.edge list;
  mutable b_generation : int;
}

let builder () = { b_types = []; b_nodes = 0; b_edges = []; b_generation = 0 }

let fresh_node b =
  let id = b.b_nodes in
  b.b_nodes <- id + 1;
  b.b_generation <- b.b_generation + 1;
  id

let ensure_type_node b ty =
  match List.assoc_opt ty b.b_types with
  | Some id -> id
  | None ->
      let id = fresh_node b in
      b.b_types <- (ty, id) :: b.b_types;
      id

let add_typestate b = fresh_node b

let add_edge b ~src elem ~dst =
  let same (e : Graph.edge) = e.Graph.src = src && e.Graph.elem = elem && e.Graph.dst = dst in
  if not (List.exists same b.b_edges) then begin
    b.b_edges <- { Graph.elem; src; dst } :: b.b_edges;
    b.b_generation <- b.b_generation + 1
  end

let succs b u = List.filter (fun (e : Graph.edge) -> e.Graph.src = u) b.b_edges

let preds b v = List.filter (fun (e : Graph.edge) -> e.Graph.dst = v) b.b_edges

let edge_count b = List.length b.b_edges

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

let distances_to g ~target =
  fixpoint g ~starts:[ target ] ~dir:(fun e ->
      (e.Graph.dst, e.Graph.src, Elem.cost e.Graph.elem))

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
   variable), the key's text rendered by [to_string]; the first pair of
   each (variable, [to_expression] rendering) is kept, and the first
   [max_results] of those are the answer. *)
let numeric (k : Prospector.Rank.key) =
  Prospector.Rank.(k.length, k.crossings, k.specificity, k.interior)

let pipeline ~settings g ~hierarchy ~inputs ~target =
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
         (Prospector.Rank.key ~weights:settings.Query.weights hierarchy j, var, j))
  |> List.stable_sort (fun (ka, va, ja) (kb, vb, jb) ->
         match compare (numeric ka) (numeric kb) with
         | 0 -> compare (to_string ja, va) (to_string jb, vb)
         | c -> c)
  |> List.map (fun (_, var, j) -> (var, j))
  |> first_by (fun (var, j) -> (var, to_expression j))
  |> List.filteri (fun i _ -> i < settings.Query.max_results)

(* [Query.run]'s answer: the one-input pipeline from [tin]. *)
let run ?(settings = Query.default_settings) g ~hierarchy (q : Query.t) =
  match (Graph.find_type_node g q.tin, Graph.find_type_node g q.tout) with
  | Some src, Some dst ->
      List.map snd (pipeline ~settings g ~hierarchy ~inputs:[ (src, None) ] ~target:dst)
  | _ -> []

(* [Query.run_multi]'s answer: the pipeline from [void] and every variable
   whose type has a node. *)
let run_multi ?(settings = Query.default_settings) g ~hierarchy ~vars ~tout =
  match Graph.find_type_node g tout with
  | None -> []
  | Some dst ->
      let input (ty, var) = Option.map (fun n -> (n, var)) (Graph.find_type_node g ty) in
      let inputs =
        List.filter_map input
          ((Javamodel.Jtype.Void, None)
          :: List.map (fun (name, ty) -> (ty, Some name)) vars)
      in
      pipeline ~settings g ~hierarchy ~inputs ~target:dst
