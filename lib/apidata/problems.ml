module Query = Prospector.Query

type outcome =
  | Rank of int
  | Not_found

type t = {
  id : int;
  description : string;
  source : string;
  tin : string;
  tout : string;
  paper : outcome;
  is_desired : Prospector.Query.result -> bool;
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
      description = "Read lines from an input stream";
      source = "Tester";
      tin = "java.io.InputStream";
      tout = "java.io.BufferedReader";
      paper = Rank 1;
      is_desired = code_has [ "new BufferedReader"; "new InputStreamReader" ];
    };
    {
      id = 2;
      description = "Open a named file for memory-mapped I/O";
      source = "Almanac";
      tin = "java.lang.String";
      tout = "java.nio.MappedByteBuffer";
      paper = Rank 1;
      is_desired = code_has [ "getChannel()"; ".map(" ];
    };
    {
      id = 3;
      description = "Get table widget from an Eclipse view";
      source = "FAQs";
      tin = "org.eclipse.jface.viewers.TableViewer";
      tout = "org.eclipse.swt.widgets.Table";
      paper = Rank 1;
      is_desired = code_has [ ".getTable()" ];
    };
    {
      id = 4;
      description = "Get the active editor";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IWorkbench";
      tout = "org.eclipse.ui.IEditorPart";
      paper = Rank 1;
      is_desired =
        code_has [ "getActiveWorkbenchWindow()"; "getActivePage()"; "getActiveEditor()" ];
    };
    {
      id = 5;
      description = "Retrieve canvas from scrolling viewer";
      source = "Author";
      tin = "org.eclipse.gef.ui.parts.ScrollingGraphicalViewer";
      tout = "org.eclipse.draw2d.FigureCanvas";
      paper = Rank 1;
      is_desired = code_has [ "getControl()"; "(FigureCanvas)" ];
    };
    {
      id = 6;
      description = "Get window for MessageBox";
      source = "Author";
      tin = "org.eclipse.swt.events.KeyEvent";
      tout = "org.eclipse.swt.widgets.Shell";
      paper = Rank 1;
      is_desired = code_has_any [ "getActiveShell()"; "getShell()" ];
    };
    {
      id = 7;
      description = "Convert legacy class";
      source = "Author";
      tin = "java.util.Enumeration";
      tout = "java.util.Iterator";
      paper = Rank 1;
      is_desired = code_has_any [ "asIterator"; "EnumerationIterator" ];
    };
    {
      id = 8;
      description = "Get selection from event";
      source = "Author";
      tin = "org.eclipse.jface.viewers.SelectionChangedEvent";
      tout = "org.eclipse.jface.viewers.ISelection";
      paper = Rank 1;
      is_desired = code_has [ ".getSelection()" ];
    };
    {
      id = 9;
      description = "Get image handle for lazy image loading";
      source = "Author";
      tin = "org.eclipse.jface.resource.ImageRegistry";
      tout = "org.eclipse.jface.resource.ImageDescriptor";
      paper = Rank 1;
      is_desired = code_has [ ".getDescriptor(" ];
    };
    {
      id = 10;
      description = "Iterate over map values";
      source = "Tester";
      tin = "java.util.Map";
      tout = "java.util.Iterator";
      paper = Rank 1;
      is_desired = code_has [ ".values()"; ".iterator()" ];
    };
    {
      id = 11;
      description = "Add menu bars to a view";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IViewPart";
      tout = "org.eclipse.jface.action.MenuManager";
      paper = Rank 1;
      is_desired = code_has [ "getViewSite()"; "getActionBars()"; "getMenuManager()" ];
    };
    {
      id = 12;
      description = "Set captions on table columns";
      source = "Author";
      tin = "org.eclipse.jface.viewers.TableViewer";
      tout = "org.eclipse.swt.widgets.TableColumn";
      paper = Rank 2;
      is_desired = code_has [ "new TableColumn"; ".getTable()" ];
    };
    {
      id = 13;
      description = "Track selection changes in another widget";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IEditorSite";
      tout = "org.eclipse.ui.ISelectionService";
      paper = Rank 2;
      is_desired = code_has [ "getWorkbenchWindow()"; "getSelectionService()" ];
    };
    {
      id = 14;
      description = "Read lines from a file";
      source = "Almanac";
      tin = "java.lang.String";
      tout = "java.io.BufferedReader";
      paper = Rank 3;
      is_desired = code_has [ "new BufferedReader"; "new FileReader" ];
    };
    {
      id = 15;
      description = "Find out what object is selected";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IWorkbenchPage";
      tout = "org.eclipse.jface.viewers.IStructuredSelection";
      paper = Rank 3;
      is_desired = code_has [ ".getSelection()"; "(IStructuredSelection)" ];
    };
    {
      id = 16;
      description = "Manipulate document of visual editor";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IWorkbenchPage";
      tout = "org.eclipse.ui.texteditor.IDocumentProvider";
      paper = Rank 3;
      is_desired = code_has [ "getDocumentProvider" ];
    };
    {
      id = 17;
      description = "Convert file handle to file name";
      source = "Author";
      tin = "org.eclipse.core.resources.IFile";
      tout = "java.lang.String";
      paper = Rank 4;
      is_desired = code_has [ ".getName()" ];
    };
    {
      id = 18;
      description = "Get an Eclipse view by name";
      source = "Eclipse FAQs";
      tin = "org.eclipse.ui.IWorkbenchWindow";
      tout = "org.eclipse.ui.IViewPart";
      paper = Rank 4;
      is_desired = code_has [ ".findView(" ];
    };
    {
      id = 19;
      description = "Set graph edge routing algorithm";
      source = "Author";
      tin = "org.eclipse.gef.editparts.AbstractGraphicalEditPart";
      tout = "org.eclipse.draw2d.ConnectionLayer";
      paper = Not_found;
      (* the desired jungloid calls the protected getLayer *)
      is_desired = code_has [ "getLayer(" ];
    };
    {
      id = 20;
      description = "Retrieve file from workspace";
      source = "Author";
      tin = "org.eclipse.core.resources.IWorkspace";
      tout = "org.eclipse.core.resources.IFile";
      paper = Not_found;
      (* a file in a named project: crowded out by parallel accessors *)
      is_desired = code_has [ ".getProject("; ".getFile(" ];
    };
  ]

type measured = {
  problem : t;
  time_s : float;
  rank : int option;
  results : Prospector.Query.result list;
}

let run_one ?settings ~frozen ~hierarchy p =
  let q = Query.query p.tin p.tout in
  let t0 = Unix.gettimeofday () in
  let results = Query.run ?settings ~frozen ~hierarchy q in
  let time_s = Unix.gettimeofday () -. t0 in
  let rank =
    List.mapi (fun i r -> (i + 1, r)) results
    |> List.find_opt (fun (_, r) -> p.is_desired r)
    |> Option.map fst
  in
  { problem = p; time_s; rank; results }

let run_all ?settings ~graph ~hierarchy () =
  let frozen = Query.freeze graph in
  List.map (run_one ?settings ~frozen ~hierarchy) all

let found m = match m.rank with Some r -> r <= 5 | None -> false
