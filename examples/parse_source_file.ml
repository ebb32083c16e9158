(* The paper's Section 1 motivating example: parsing a Java source file in
   the Eclipse framework. The programmer holds an IFile and needs an
   ASTNode; the crucial link — JavaCore.createCompilationUnitFrom, a static
   method on a class the programmer "would not think to look at" — took the
   authors hours to find by hand. The query finds it at rank 1.

   Run with: dune exec examples/parse_source_file.exe *)

let () =
  let hierarchy = Apidata.Api.hierarchy () in
  let frozen = Prospector.Query.freeze (Apidata.Api.default_graph ()) in

  print_endline "Task: parse the Java source file behind an IFile.\n";
  print_endline "Query: (IFile, ASTNode)\n";

  let q =
    Prospector.Query.query "org.eclipse.core.resources.IFile"
      "org.eclipse.jdt.core.dom.ASTNode"
  in
  let results = Prospector.Query.run ~frozen ~hierarchy q in
  List.iteri
    (fun i (r : Prospector.Query.result) ->
      Printf.printf "result #%d (length %d):\n" (i + 1)
        r.Prospector.Query.key.Prospector.Rank.length;
      print_string r.Prospector.Query.code;
      print_newline ())
    results;

  (* The paper's hand-written solution, for comparison:

       IFile file = ...;
       ICompilationUnit cu = JavaCore.createCompilationUnitFrom(file);
       ASTNode ast = AST.parseCompilationUnit(cu, false);

     Result #1 above is exactly this code (modulo variable names), with the
     boolean parameter defaulted to false. *)
  match results with
  | top :: _ ->
      let ok =
        let has sub =
          let n = String.length sub and s = top.Prospector.Query.code in
          let m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has "JavaCore.createCompilationUnitFrom" && has "AST.parseCompilationUnit"
      in
      Printf.printf "matches the paper's hand-written solution: %b\n" ok
  | [] -> print_endline "unexpected: no results"
