(* The paper's Section 4 example: jungloids that contain downcasts cannot
   be synthesized from signatures — getSelection() returns an ISelection
   whose only method is isEmpty(), an apparent dead end. Mining the corpus
   (Figure 4's production code) teaches the graph which downcasts are
   viable, after which the query succeeds.

   Run with: dune exec examples/debugger_selection.exe *)

let tin = "org.eclipse.debug.ui.IDebugView"
let tout = "org.eclipse.jdt.internal.debug.ui.display.JavaInspectExpression"

let () =
  let hierarchy = Apidata.Api.hierarchy () in

  print_endline "Task: the watch expression selected in the Java debugger GUI.";
  Printf.printf "Query: (%s, %s)\n\n" "IDebugView" "JavaInspectExpression";

  (* Signatures only: the dead end the paper describes. *)
  let sig_graph = Apidata.Api.signature_graph () in
  let q = Prospector.Query.query tin tout in
  let without =
    Prospector.Query.run ~frozen:(Prospector.Query.freeze sig_graph) ~hierarchy q
  in
  Printf.printf "signature graph only: %d results (ISelection is a dead end)\n\n"
    (List.length without);

  (* With mining: the Figure 4 corpus example donates the cast chain. *)
  let graph, stats = Apidata.Api.jungloid_graph () in
  Printf.printf
    "mined the corpus: %d casts, %d examples, %d after generalization, %d edges added\n\n"
    stats.Mining.Enrich.casts_in_corpus stats.Mining.Enrich.examples_extracted
    stats.Mining.Enrich.examples_after_generalization stats.Mining.Enrich.edges_added;
  match Prospector.Query.run ~frozen:(Prospector.Query.freeze graph) ~hierarchy q with
  | [] -> print_endline "unexpected: still no results"
  | top :: _ ->
      print_endline "with the jungloid graph:";
      print_string top.Prospector.Query.code;
      (* Figure 2 of the paper:
           Viewer viewer = debugger.getViewer();
           IStructuredSelection sel = (IStructuredSelection) viewer.getSelection();
           JavaInspectExpression expr = (JavaInspectExpression) sel.getFirstElement(); *)
      print_endline "\n(matches Figure 2 of the paper)"
