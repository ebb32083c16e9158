module Query = Prospector.Query
module Assist = Prospector.Assist

type t = {
  id : int;
  title : string;
  statement : string;
  vars : (string * string) list;
  tout : string;
  baseline_tout : string option;
  is_desired : Prospector.Query.result -> bool;
  base_minutes : float;
  paper_speedup : float;
}

let contains = Prospector.Util.contains

let code_has subs (r : Query.result) =
  List.for_all (fun sub -> contains ~sub r.Query.code) subs

let code_has_any subs (r : Query.result) =
  List.exists (fun sub -> contains ~sub r.Query.code) subs

let all =
  [
    {
      id = 1;
      title = "Convert Enumeration to Iterator";
      statement =
        "An old Java API, written before Java 1.2, has returned an \
         Enumeration. Convert it to an Iterator.";
      vars = [ ("en", "java.util.Enumeration") ];
      tout = "java.util.Iterator";
      baseline_tout = None;
      is_desired = code_has_any [ "asIterator"; "EnumerationIterator" ];
      base_minutes = 14.0;
      paper_speedup = 2.0;
    };
    {
      id = 2;
      title = "Play a sound file at a URL";
      statement =
        "The Java API supports reading URLs as if they were files, and \
         playing sound files or audio clips. Play the sound file at a \
         particular URL, given as a String.";
      vars = [ ("url", "java.lang.String") ];
      tout = "java.applet.AudioClip";
      baseline_tout = None;
      is_desired = code_has [ "newAudioClip"; "new URL" ];
      base_minutes = 38.0;
      paper_speedup = 2.0;
    };
    {
      id = 3;
      title = "Get the active editor part";
      statement =
        "Editors are represented by subclasses of IEditorPart. Retrieve \
         the editor part that represents the active editor from IWorkbench.";
      vars = [ ("workbench", "org.eclipse.ui.IWorkbench") ];
      tout = "org.eclipse.ui.IEditorPart";
      baseline_tout = None;
      is_desired =
        code_has [ "getActiveWorkbenchWindow()"; "getActivePage()"; "getActiveEditor()" ];
      base_minutes = 24.0;
      paper_speedup = 2.0;
    };
    {
      id = 4;
      title = "Get an image from the shared image cache";
      statement =
        "Eclipse plugins share common images through a shared image class \
         of type ImageRegistry. Get an image from the shared image cache.";
      vars = [ ("workbench", "org.eclipse.ui.IWorkbench") ];
      tout = "org.eclipse.jface.resource.ImageRegistry";
      baseline_tout = Some "org.eclipse.swt.graphics.Image";
      is_desired = code_has [ "getImageRegistry()" ];
      base_minutes = 16.0;
      paper_speedup = 1.0;
    };
  ]

let parse_ty = Javamodel.Jtype.ref_of_string

let tool_rank ~frozen ~hierarchy p =
  let ctx =
    {
      Assist.vars = List.map (fun (n, ty) -> (n, parse_ty ty)) p.vars;
      expected = parse_ty p.tout;
    }
  in
  let suggestions = Assist.suggest ~frozen ~hierarchy ctx in
  List.mapi (fun i s -> (i + 1, s)) suggestions
  |> List.find_opt (fun (_, s) -> p.is_desired s.Assist.result)
  |> Option.map fst
