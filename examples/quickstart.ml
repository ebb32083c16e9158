(* Quickstart: load an API model from .japi text, build the signature
   graph, and answer a jungloid query — the smallest complete use of the
   public API.

   Run with: dune exec examples/quickstart.exe *)

let api =
  {|
  package demo.io;

  class Database {
    static Database open(String url);
    Session newSession();
  }

  class Session {
    Cursor query(String sql);
  }

  class Cursor {
    Row next();
  }

  class Row {
    String column(int index);
  }
  |}

let () =
  (* 1. Parse the API signatures into a class hierarchy. *)
  let hierarchy = Japi.Loader.load_string ~file:"demo.japi" api in
  Printf.printf "loaded %d declarations\n" (Javamodel.Hierarchy.size hierarchy);

  (* 2. Build the signature graph: one node per type, one edge per
        elementary jungloid. *)
  let graph = Prospector.Sig_graph.build hierarchy in
  let stats = Prospector.Stats.of_graph graph in
  Printf.printf "signature graph: %d nodes, %d edges\n\n" stats.Prospector.Stats.nodes
    stats.Prospector.Stats.edges;

  (* 3. Freeze the graph into the flat snapshot every search runs on, once,
        and ask: "I have a Database, I need a Row." *)
  let frozen = Prospector.Query.freeze graph in
  let q = Prospector.Query.query "demo.io.Database" "demo.io.Row" in
  let results = Prospector.Query.run ~frozen ~hierarchy q in

  (* 4. Read the ranked jungloids and the generated Java. *)
  List.iteri
    (fun i (r : Prospector.Query.result) ->
      Printf.printf "result #%d: %s\n%s\n" (i + 1)
        (Prospector.Jungloid.to_string r.Prospector.Query.jungloid)
        r.Prospector.Query.code)
    results;

  (* 5. How do I even get a Database? Database.open takes the URL string,
        so the producer query starts from String. (A zero-argument factory
        would make it a void query instead.) *)
  let producer_q = Prospector.Query.query "java.lang.String" "demo.io.Database" in
  (match Prospector.Query.run ~frozen ~hierarchy producer_q with
  | top :: _ ->
      Printf.printf "how do I even get a Database? (from its URL string)\n%s"
        top.Prospector.Query.code
  | [] -> print_endline "no way to build a Database");

  print_endline "\nquickstart done"
