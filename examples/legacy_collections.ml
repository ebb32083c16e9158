(* Section 4.1's first motivation for mining: "Many existing APIs require
   downcasts because they use legacy collections instead of Java 5
   Generics." ZipFile.entries() returns a raw Enumeration whose elements
   are, at run time, ZipEntry objects — a fact signatures cannot express.
   The corpus teaches the graph the viable cast.

   Run with: dune exec examples/legacy_collections.exe *)

let () =
  let hierarchy = Apidata.Api.hierarchy () in

  print_endline "Task: iterate the entries of a zip file.";
  print_endline "Query: (ZipFile, ZipEntry), slack 2 for the longer mined chain\n";

  let settings = { Prospector.Query.default_settings with slack = 2 } in
  let q = Prospector.Query.query "java.util.zip.ZipFile" "java.util.zip.ZipEntry" in

  (* Signatures only: the Enumeration is a dead end (nextElement() returns
     Object), so the only routes are constructors and getEntry. *)
  let sig_graph = Apidata.Api.signature_graph () in
  let without =
    Prospector.Query.run ~settings ~frozen:(Prospector.Query.freeze sig_graph)
      ~hierarchy q
  in
  print_endline "signature graph only:";
  List.iteri
    (fun i (r : Prospector.Query.result) ->
      if i < 3 then
        Printf.printf "  %d. %s\n" (i + 1)
          (Prospector.Jungloid.to_expression r.Prospector.Query.jungloid))
    without;

  (* With the mined corpus, the enumeration route exists. *)
  let frozen = Prospector.Query.freeze (Apidata.Api.default_graph ()) in
  let with_mining = Prospector.Query.run ~settings ~frozen ~hierarchy q in
  print_endline "\nwith the mined corpus:";
  List.iteri
    (fun i (r : Prospector.Query.result) ->
      if i < 5 then
        Printf.printf "  %d. %s\n" (i + 1)
          (Prospector.Jungloid.to_expression r.Prospector.Query.jungloid))
    with_mining;

  match
    List.find_opt
      (fun (r : Prospector.Query.result) ->
        Prospector.Jungloid.contains_downcast r.Prospector.Query.jungloid)
      with_mining
  with
  | Some r ->
      print_endline "\nthe mined legacy-collection jungloid, as insertable Java:";
      print_string r.Prospector.Query.code
  | None -> print_endline "\nunexpected: no mined route"
