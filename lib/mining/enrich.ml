let log_src = Logs.Src.create "prospector.mining" ~doc:"jungloid mining"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Graph = Prospector.Graph
module Elem = Prospector.Elem

type stats = {
  casts_in_corpus : int;
  examples_extracted : int;
  examples_after_generalization : int;
  edges_added : int;
  typestate_nodes_added : int;
}

let add_examples g examples =
  let edges0 = Graph.edge_count g in
  let ts = ref 0 in
  List.iter
    (fun (ex : Extract.example) ->
      let entry = Graph.ensure_type_node g ex.Extract.input in
      let rec splice src = function
        | [] -> ()
        | [ last ] ->
            let dst = Graph.ensure_type_node g (Elem.output_type last) in
            Graph.add_edge g ~src last ~dst
        | e :: rest ->
            let dst =
              Graph.add_typestate g ~underlying:(Elem.output_type e)
                ~origin:ex.Extract.origin
            in
            incr ts;
            Graph.add_edge g ~src e ~dst;
            splice dst rest
      in
      splice entry ex.Extract.elems)
    examples;
  (Graph.edge_count g - edges0, !ts)

(* The synthesis surface is public members only (plus protected when the
   include_protected extension is on): an example whose chain calls a
   non-public member would generate uncompilable client code. *)
let visible ~include_protected (ex : Extract.example) =
  List.for_all
    (fun e ->
      match Elem.visibility e with
      | None | Some Javamodel.Member.Public -> true
      | Some Javamodel.Member.Protected -> include_protected
      | Some (Javamodel.Member.Private | Javamodel.Member.Package) -> false)
    ex.Extract.elems

(* [?on_examples] is ignored: [perfbench/model.ml] still passes one. *)
let enrich ?max_per_cast ?max_len ?(generalize = true) ?min_keep
    ?(include_protected = false) ?(flow_sensitive = false) ?pool ?on_examples:_ g prog
    =
  let df = Dataflow.build ~flow_sensitive prog in
  let casts = List.length (Dataflow.casts df) in
  let examples =
    List.filter (visible ~include_protected)
      (Extract.extract ?max_per_cast ?max_len ?pool df)
  in
  let final =
    if generalize then Generalize.run ?min_keep examples else examples
  in
  let edges_added, typestate_nodes_added = add_examples g final in
  Log.info (fun m ->
      m "mined %d casts: %d examples, %d after generalization, %d edges and %d typestates added"
        casts (List.length examples) (List.length final) edges_added
        typestate_nodes_added);
  {
    casts_in_corpus = casts;
    examples_extracted = List.length examples;
    examples_after_generalization = List.length final;
    edges_added;
    typestate_nodes_added;
  }
