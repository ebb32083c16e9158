(* Eclipse FAQ 270 (the paper's Section 2.2 worked example): "How do I
   manipulate the data in my visual editor?" — solved by composing two
   jungloid queries. The first yields a jungloid with a free variable (the
   DocumentProviderRegistry); the second, a void-input query, produces it.
   This is the paper's recipe for code that needs more than one input.

   Run with: dune exec examples/editor_document.exe *)

let () =
  let hierarchy = Apidata.Api.hierarchy () in
  let frozen = Prospector.Query.freeze (Apidata.Api.default_graph ()) in

  print_endline "FAQ 270: manipulate the document behind a visual editor.\n";

  (* Step 1: (IEditorPart, IDocumentProvider). *)
  print_endline "step 1 — query (IEditorPart, IDocumentProvider):";
  let q1 =
    Prospector.Query.query "org.eclipse.ui.IEditorPart"
      "org.eclipse.ui.texteditor.IDocumentProvider"
  in
  let r1 = Prospector.Query.run ~frozen ~hierarchy q1 in
  let has sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* The paper's route feeds getEditorInput() into the registry, leaving the
     registry itself as the free variable. *)
  let registry_route =
    List.find
      (fun (r : Prospector.Query.result) ->
        has "getEditorInput()" r.Prospector.Query.code
        && List.exists
             (fun (_, ty) ->
               Javamodel.Jtype.to_string ty
               = "org.eclipse.ui.texteditor.DocumentProviderRegistry")
             (Prospector.Jungloid.free_vars r.Prospector.Query.jungloid))
      r1
  in
  print_string registry_route.Prospector.Query.code;

  (* Step 2: the snippet above declares a free variable of type
     DocumentProviderRegistry. The user does not know what to compute it
     from, so content assist tries every visible variable plus void. *)
  print_endline "\nstep 2 — the free variable: (void, DocumentProviderRegistry):";
  let ctx =
    {
      Prospector.Assist.vars =
        [ ("ep", Javamodel.Jtype.ref_of_string "org.eclipse.ui.IEditorPart") ];
      expected =
        Javamodel.Jtype.ref_of_string "org.eclipse.ui.texteditor.DocumentProviderRegistry";
    }
  in
  (match Prospector.Assist.suggest ~frozen ~hierarchy ctx with
  | top :: _ ->
      Printf.printf "  %s%s\n" top.Prospector.Assist.title
        (match top.Prospector.Assist.uses_var with
        | Some v -> "   (uses " ^ v ^ ")"
        | None -> "   (built from nothing — the void query)")
  | [] -> print_endline "  no suggestion");

  (* Assembled, this is the paper's final code:

       IEditorInput inp = ep.getEditorInput();
       DocumentProviderRegistry dpreg = DocumentProviderRegistry.getDefault();
       IDocumentProvider dp = dpreg.getDocumentProvider(inp);            *)
  print_endline "\ndone: two queries, one composed solution (Section 2.2)"
