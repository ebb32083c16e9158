module Query = Prospector.Query

type t = {
  id : int;
  description : string;
  tin : string;
  tout : string;
  max_rank : int;
  settings : Prospector.Query.settings;
  is_desired : Prospector.Query.result -> bool;
}

let contains = Prospector.Util.contains

let code_has subs (r : Query.result) =
  List.for_all (fun sub -> contains ~sub r.Query.code) subs

let code_has_any subs (r : Query.result) =
  List.exists (fun sub -> contains ~sub r.Query.code) subs

let dflt = Query.default_settings

let slack2 = { Query.default_settings with slack = 2 }

let all =
  [
    {
      id = 1;
      description = "Parse a date from a string";
      tin = "java.lang.String";
      tout = "java.util.Date";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ ".parse(" ];
    };
    {
      id = 2;
      description = "Read a zip entry's contents";
      tin = "java.util.zip.ZipFile";
      tout = "java.io.InputStream";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ ".getInputStream(" ];
    };
    {
      id = 3;
      description = "Open a zip file by name";
      tin = "java.lang.String";
      tout = "java.util.zip.ZipFile";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "new ZipFile" ];
    };
    {
      id = 4;
      description = "Read lines from a URL";
      tin = "java.net.URL";
      tout = "java.io.BufferedReader";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ "openStream()"; "new InputStreamReader"; "new BufferedReader" ];
    };
    {
      id = 5;
      description = "Open a named file as a stream";
      tin = "java.lang.String";
      tout = "java.io.InputStream";
      max_rank = 4;
      settings = dflt;
      is_desired = code_has [ "new FileInputStream" ];
    };
    {
      id = 6;
      description = "Get some shell to parent a dialog";
      tin = "void";
      tout = "org.eclipse.swt.widgets.Shell";
      max_rank = 5;
      settings = dflt;
      is_desired = code_has_any [ "getActiveShell()"; "getActiveWorkbenchShell()" ];
    };
    {
      id = 7;
      description = "Pop a message box over a shell";
      tin = "org.eclipse.swt.widgets.Shell";
      tout = "org.eclipse.swt.widgets.MessageBox";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "new MessageBox" ];
    };
    {
      id = 8;
      description = "Get a shared workbench image";
      tin = "org.eclipse.ui.IWorkbench";
      tout = "org.eclipse.swt.graphics.Image";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ "getSharedImages()"; ".getImage(" ];
    };
    {
      id = 9;
      description = "Image descriptor from a URL string";
      tin = "java.lang.String";
      tout = "org.eclipse.jface.resource.ImageDescriptor";
      max_rank = 4;
      settings = dflt;
      is_desired = code_has [ "createFromURL"; "new URL" ];
    };
    {
      id = 10;
      description = "Get the control behind a wizard page";
      tin = "org.eclipse.jface.wizard.IWizardPage";
      tout = "org.eclipse.swt.widgets.Control";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ ".getControl()" ];
    };
    {
      id = 11;
      description = "Memory-map a file object";
      tin = "java.io.File";
      tout = "java.nio.MappedByteBuffer";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ "getChannel()"; ".map(" ];
    };
    {
      id = 12;
      (* String-producing queries are crowded (Object.toString alone gives
         every type a one-step route — the paper's (IFile, String) rank-4
         phenomenon, amplified): the desired call sits deep in the list and
         needs a longer result page. *)
      description = "Look up a configuration property (crowded)";
      tin = "java.util.Properties";
      tout = "java.lang.String";
      max_rank = 20;
      settings = { dflt with Prospector.Query.max_results = 25 };
      is_desired = code_has [ ".getProperty(" ];
    };
    {
      id = 13;
      description = "File behind the active editor (mined downcast)";
      tin = "org.eclipse.ui.IEditorPart";
      tout = "org.eclipse.core.resources.IFile";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ "(IFileEditorInput)"; "getEditorInput()"; ".getFile()" ];
    };
    {
      id = 14;
      description = "Read a workspace file's contents";
      tin = "org.eclipse.core.resources.IFile";
      tout = "java.io.InputStream";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ ".getContents()" ];
    };
    {
      id = 15;
      description = "Java model element for a source file";
      tin = "org.eclipse.core.resources.IFile";
      tout = "org.eclipse.jdt.core.ICompilationUnit";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "createCompilationUnitFrom" ];
    };
    {
      id = 16;
      description = "Name of a zip entry";
      tin = "java.util.zip.ZipEntry";
      tout = "java.lang.String";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ ".getName()" ];
    };
    {
      id = 17;
      description = "Shell that hosts a table viewer";
      tin = "org.eclipse.jface.viewers.TableViewer";
      tout = "org.eclipse.swt.widgets.Shell";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ ".getShell()" ];
    };
    {
      id = 18;
      description = "Iterate a zip file's entries (mined legacy cast)";
      tin = "java.util.zip.ZipFile";
      tout = "java.util.zip.ZipEntry";
      max_rank = 5;
      settings = slack2;
      is_desired = code_has [ ".entries()"; "(ZipEntry)" ];
    };
    {
      id = 20;
      description = "Get the launch manager";
      tin = "void";
      tout = "org.eclipse.debug.core.ILaunchManager";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "DebugPlugin.getDefault()"; "getLaunchManager()" ];
    };
    {
      id = 21;
      description = "Editable copy of a launch configuration";
      tin = "org.eclipse.debug.core.ILaunchConfiguration";
      tout = "org.eclipse.debug.core.ILaunchConfigurationWorkingCopy";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ ".getWorkingCopy()" ];
    };
    {
      id = 22;
      description = "Write to a new console";
      tin = "java.lang.String";
      tout = "org.eclipse.ui.console.MessageConsoleStream";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ "new MessageConsole"; "newMessageStream()" ];
    };
    {
      id = 23;
      (* the builder itself becomes a free variable, produced by the next
         row's void query — the paper's two-query composition *)
      description = "Parse an XML document from a URI string";
      tin = "java.lang.String";
      tout = "org.w3c.dom.Document";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ ".parse("; "DocumentBuilder receiver; // free variable" ];
    };
    {
      id = 28;
      description = "Produce the document builder (void query)";
      tin = "void";
      tout = "javax.xml.parsers.DocumentBuilder";
      max_rank = 1;
      settings = dflt;
      is_desired =
        code_has [ "DocumentBuilderFactory.newInstance()"; "newDocumentBuilder()" ];
    };
    {
      id = 24;
      description = "Open a JDBC connection";
      tin = "java.lang.String";
      tout = "java.sql.Connection";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "DriverManager.getConnection" ];
    };
    {
      id = 25;
      description = "Run a query over a connection";
      tin = "java.sql.Connection";
      tout = "java.sql.ResultSet";
      max_rank = 3;
      settings = dflt;
      is_desired = code_has [ "executeQuery" ];
    };
    {
      id = 26;
      description = "Root element of a document";
      tin = "org.w3c.dom.Document";
      tout = "org.w3c.dom.Element";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "getDocumentElement()" ];
    };
    {
      id = 27;
      description = "Element out of a node list (mined DOM cast)";
      tin = "org.w3c.dom.NodeList";
      tout = "org.w3c.dom.Element";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ ".item("; "(Element)" ];
    };
    {
      id = 29;
      (* the DefaultMutableTreeNode(Object) constructor gives many shorter
         wrap-anything candidates, so the mined selection route needs the
         wider m+2 search and a longer page — another crowded query *)
      description = "Selected tree node via the selection path (mined)";
      tin = "javax.swing.JTree";
      tout = "javax.swing.tree.DefaultMutableTreeNode";
      max_rank = 15;
      settings = { dflt with Prospector.Query.slack = 2; max_results = 20 };
      is_desired =
        code_has [ "getSelectionPath()"; "getLastPathComponent()"; "(DefaultMutableTreeNode)" ];
    };
    {
      id = 30;
      description = "Editable model behind a table (mined)";
      tin = "javax.swing.JTable";
      tout = "javax.swing.table.DefaultTableModel";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ ".getModel()"; "(DefaultTableModel)" ];
    };
    {
      id = 31;
      description = "Content pane of a frame";
      tin = "javax.swing.JFrame";
      tout = "java.awt.Container";
      max_rank = 2;
      settings = dflt;
      is_desired = code_has [ "getContentPane()" ];
    };
    {
      id = 32;
      description = "Button with a label";
      tin = "java.lang.String";
      tout = "javax.swing.JButton";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "new JButton" ];
    };
    {
      id = 19;
      description = "Changed file from a resource-change event (mined)";
      tin = "org.eclipse.core.resources.IResourceChangeEvent";
      tout = "org.eclipse.core.resources.IFile";
      max_rank = 1;
      settings = dflt;
      is_desired = code_has [ "getDelta()"; "getResource()"; "(IFile)" ];
    };
  ]

type measured = {
  problem : t;
  rank : int option;
  time_s : float;
}

let run_one ~frozen ~hierarchy p =
  let q = Query.query p.tin p.tout in
  let t0 = Unix.gettimeofday () in
  let results = Query.run ~settings:p.settings ~frozen ~hierarchy q in
  let time_s = Unix.gettimeofday () -. t0 in
  let rank =
    List.mapi (fun i r -> (i + 1, r)) results
    |> List.find_opt (fun (_, r) -> p.is_desired r)
    |> Option.map fst
  in
  { problem = p; rank; time_s }

let run_all ~graph ~hierarchy () =
  let frozen = Query.freeze graph in
  List.map (run_one ~frozen ~hierarchy) all

let ok m = match m.rank with Some r -> r <= m.problem.max_rank | None -> false
