(* An interactive content-assist session against the bundled Eclipse model:
   type an expected type (and optionally variables) and read suggestions —
   what the Eclipse plugin's completion popup showed.

   Run with:  dune exec examples/api_explorer.exe            (demo script)
              dune exec examples/api_explorer.exe -- -i      (interactive) *)

(* One snapshot serves the whole session. *)
let frozen = lazy (Prospector.Query.freeze (Apidata.Api.default_graph ()))
let hierarchy = lazy (Apidata.Api.hierarchy ())

let suggest vars expected =
  let ctx =
    {
      Prospector.Assist.vars =
        List.map (fun (n, t) -> (n, Javamodel.Jtype.ref_of_string t)) vars;
      expected = Javamodel.Jtype.ref_of_string expected;
    }
  in
  Prospector.Assist.suggest ~frozen:(Lazy.force frozen)
    ~hierarchy:(Lazy.force hierarchy) ctx

let show vars expected =
  Printf.printf "\n> %s  (in scope: %s)\n" expected
    (if vars = [] then "nothing"
     else String.concat ", " (List.map (fun (n, t) -> n ^ " : " ^ t) vars));
  match suggest vars expected with
  | [] -> print_endline "  no suggestions"
  | ss ->
      List.iteri
        (fun i (s : Prospector.Assist.suggestion) ->
          if i < 5 then
            Printf.printf "  %d. %s%s\n" (i + 1) s.Prospector.Assist.title
              (match s.Prospector.Assist.uses_var with
              | Some v -> "  [" ^ v ^ "]"
              | None -> ""))
        ss

let demo () =
  print_endline "content-assist demo over the bundled Eclipse 2.1 model";
  show
    [ ("viewer", "org.eclipse.jface.viewers.TableViewer") ]
    "org.eclipse.swt.widgets.Table";
  show
    [ ("window", "org.eclipse.ui.IWorkbenchWindow") ]
    "org.eclipse.jface.viewers.IStructuredSelection";
  show [] "org.eclipse.ui.IWorkbench";
  show
    [ ("event", "org.eclipse.swt.events.KeyEvent") ]
    "org.eclipse.swt.widgets.Shell";
  show
    [ ("file", "org.eclipse.core.resources.IFile") ]
    "org.eclipse.jdt.core.dom.CompilationUnit"

let interactive () =
  print_endline "enter: EXPECTED_TYPE [NAME:TYPE ...]   (empty line quits)";
  try
    while true do
      print_string "assist> ";
      let line = String.trim (input_line stdin) in
      if line = "" then raise Exit;
      match String.split_on_char ' ' line with
      | [] -> ()
      | expected :: vars ->
          let vars =
            List.filter_map
              (fun s ->
                match String.index_opt s ':' with
                | Some i ->
                    Some
                      ( String.sub s 0 i,
                        String.sub s (i + 1) (String.length s - i - 1) )
                | None -> None)
              vars
          in
          show vars expected
    done
  with Exit | End_of_file -> print_endline "bye"

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "-i" then interactive () else demo ()
