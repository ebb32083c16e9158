(* Tests for the IDE layer: query inference from a [?] hole in source
   (the paper's Section 5 content-assist integration, end-to-end). *)

module Jtype = Javamodel.Jtype
module Infer = Prospector_ide.Infer

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let api = Apidata.Api.hierarchy
let graph = Apidata.Api.default_graph

(* Content assist at one hole, through the IDE entry point. *)
let suggest h =
  snd (List.hd (Infer.suggest_all ~graph:(graph ()) ~hierarchy:(api ()) [ h ]))

let faq270_snippet =
  {|
  package client;
  class EditorDocumentFinder {
    void run(IEditorPart ep) {
      IEditorInput inp = ep.getEditorInput();
      DocumentProviderRegistry dpreg = ?;
    }
  }
  |}

let test_hole_found () =
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", faq270_snippet) ] in
  check_int "one hole" 1 (List.length hs);
  let h = List.hd hs in
  check_string "expected type" "org.eclipse.ui.texteditor.DocumentProviderRegistry"
    (Jtype.to_string h.Infer.expected);
  check_string "meth" "run" h.Infer.meth

let test_hole_vars_in_scope () =
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", faq270_snippet) ] in
  let h = List.hd hs in
  let names = List.map fst h.Infer.vars in
  (* this, the parameter, and the local declared before the hole *)
  Alcotest.(check (list string)) "scope order" [ "this"; "ep"; "inp" ] names

let test_hole_suggestions () =
  (* The Section 2.2 void query answers: DocumentProviderRegistry.getDefault() *)
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", faq270_snippet) ] in
  let suggestions = suggest (List.hd hs) in
  check_bool "suggestions exist" true (suggestions <> []);
  check_string "top is getDefault" "DocumentProviderRegistry.getDefault()"
    (List.hd suggestions).Prospector.Assist.title

let test_hole_uses_visible_variable () =
  let src =
    {|
    package client;
    class InputFinder {
      void run(IEditorPart ep) {
        IEditorInput inp = ?;
      }
    }
    |}
  in
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", src) ] in
  let suggestions = suggest (List.hd hs) in
  let top = List.hd suggestions in
  check_bool "uses ep" true (top.Prospector.Assist.uses_var = Some "ep");
  check_bool "title references ep" true (contains ~sub:"ep." top.Prospector.Assist.title)

let test_assignment_hole () =
  let src =
    {|
    package client;
    class AssignHole {
      void run(SelectionChangedEvent event) {
        ISelection sel = null;
        sel = ?;
      }
    }
    |}
  in
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", src) ] in
  check_int "one hole" 1 (List.length hs);
  let h = List.hd hs in
  check_string "expected from declared type" "org.eclipse.jface.viewers.ISelection"
    (Jtype.to_string h.Infer.expected);
  let suggestions = suggest h in
  check_bool "event.getSelection() suggested" true
    (List.exists
       (fun s -> contains ~sub:"event.getSelection()" s.Prospector.Assist.title)
       suggestions)

let test_multiple_holes_in_order () =
  let src =
    {|
    package client;
    class TwoHoles {
      void run(IWorkbench workbench) {
        IWorkbenchWindow window = ?;
        IWorkbenchPage page = ?;
      }
    }
    |}
  in
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", src) ] in
  check_int "two holes" 2 (List.length hs);
  let first = List.nth hs 0 and second = List.nth hs 1 in
  check_string "first expects window" "org.eclipse.ui.IWorkbenchWindow"
    (Jtype.to_string first.Infer.expected);
  (* the second hole sees the first hole's variable in scope *)
  check_bool "window visible at second hole" true
    (List.mem_assoc "window" second.Infer.vars)

let test_branch_locals_scoped () =
  let src =
    {|
    package client;
    class Branchy {
      void run(IWorkbench workbench) {
        if (true) {
          IWorkbenchWindow inner = workbench.getActiveWorkbenchWindow();
          IWorkbenchPage page = ?;
        }
        Shell shell = ?;
      }
    }
    |}
  in
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", src) ] in
  check_int "two holes" 2 (List.length hs);
  let in_branch = List.nth hs 0 and after = List.nth hs 1 in
  check_bool "inner visible inside branch" true
    (List.mem_assoc "inner" in_branch.Infer.vars);
  check_bool "inner not visible after branch" false
    (List.mem_assoc "shell" in_branch.Infer.vars);
  check_bool "branch-local out of scope afterwards" false
    (List.mem_assoc "inner" after.Infer.vars)

let test_static_method_no_this () =
  let src =
    {|
    package client;
    class StaticCtx {
      static void run(IWorkbench workbench) {
        IWorkbenchWindow window = ?;
      }
    }
    |}
  in
  let hs = Infer.contexts ~api:(api ()) [ ("snippet", src) ] in
  check_bool "no this in scope" false (List.mem_assoc "this" (List.hd hs).Infer.vars)

let test_no_holes () =
  let src =
    "package client; class Plain { void run(IWorkbench w) { w.close(); } }"
  in
  check_int "none" 0 (List.length (Infer.contexts ~api:(api ()) [ ("s", src) ]))

(* [suggest_all] freezes the graph once for the whole buffer. Under the
   mined ranking that snapshot must bake the usage model, or the weighted
   search and the rank keys disagree; hole by hole it must answer as
   [Assist.suggest] on a snapshot frozen under the model, without a reach
   index. The mined order differs from the paper order on this buffer, so
   a snapshot without the model shows here. *)
let test_suggest_all_mined () =
  let src =
    {|
    package client;
    class Editors {
      void run(IWorkbench workbench, IEditorPart ep) {
        IWorkbenchWindow window = ?;
        Shell shell = ?;
        IEditorInput inp = ?;
      }
    }
    |}
  in
  let graph = graph () and hierarchy = api () in
  let hs = Infer.contexts ~api:hierarchy [ ("snippet", src) ] in
  check_int "three holes" 3 (List.length hs);
  let edge_cost = Mining.Usage.edge_cost (Apidata.Api.usage ()) in
  let at ranking = { Prospector.Query.default_settings with ranking } in
  let titles = List.map (fun (s : Prospector.Assist.suggestion) -> s.title) in
  let all ranking =
    Infer.suggest_all ~settings:(at ranking) ~edge_cost ~graph ~hierarchy hs
  in
  let mined = all Prospector.Query.Mined in
  List.iter2
    (fun h (h', got) ->
      check_bool "holes in source order" true (h == h');
      let want =
        Prospector.Assist.suggest ~settings:(at Prospector.Query.Mined)
          ~frozen:(Prospector.Query.freeze ~edge_cost graph) ~edge_cost
          ~hierarchy (Infer.to_context h)
      in
      Alcotest.(check (list string))
        (Jtype.to_string h.Infer.expected)
        (titles want) (titles got);
      check_bool "same suggestions, keys and code" true (want = got))
    hs mined;
  check_bool "the mined order is not the paper order" true
    (List.map (fun (_, ss) -> titles ss) mined
    <> List.map (fun (_, ss) -> titles ss) (all Prospector.Query.Paper))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ide"
    [
      ( "infer",
        [
          tc "hole found" test_hole_found;
          tc "vars in scope" test_hole_vars_in_scope;
          tc "suggestions" test_hole_suggestions;
          tc "uses visible variable" test_hole_uses_visible_variable;
          tc "assignment hole" test_assignment_hole;
          tc "multiple holes" test_multiple_holes_in_order;
          tc "branch locals scoped" test_branch_locals_scoped;
          tc "static method no this" test_static_method_no_this;
          tc "no holes" test_no_holes;
          tc "suggest_all = suggest, mined" test_suggest_all_mined;
        ] );
    ]
