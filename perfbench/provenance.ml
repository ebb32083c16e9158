(* Where a result came from, printed with every result. *)

let git_describe () =
  let argv = [| "git"; "describe"; "--always"; "--dirty" |] in
  match Unix.open_process_args_full "git" argv (Unix.environment ()) with
  | (out, _, _) as p -> (
      let r = try Some (String.trim (input_line out)) with End_of_file -> None in
      match (Unix.close_process_full p, r) with
      | Unix.WEXITED 0, Some s when s <> "" -> s
      | _ -> "unavailable (not a git checkout)")
  | exception Unix.Unix_error _ -> "unavailable (git not found)"

let nproc () = Domain.recommended_domain_count ()

let methods h =
  Javamodel.Hierarchy.fold h ~init:0 ~f:(fun acc d ->
      acc + List.length d.Javamodel.Decl.methods)

let world (m : Model.t) =
  let fz = Prospector.Graph.freeze m.Model.graph in
  Printf.sprintf "%d methods, %d nodes, %d edges" (methods m.Model.hierarchy)
    fz.Prospector.Graph.f_nodes fz.Prospector.Graph.f_edges
