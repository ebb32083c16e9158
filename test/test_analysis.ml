(* Tests for the analyzer: the jungloid soundness verifier (J codes), the
   API-model/graph lint (A codes), the corpus linter (C codes), the codegen
   re-check (G codes), and their wiring as oracles over the Table 1 answers
   and as the mining extraction gate. Each lint rule gets a positive
   (fires) and a negative (stays quiet) case. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Elem = Prospector.Elem
module Jungloid = Prospector.Jungloid
module Query = Prospector.Query
module Graph = Prospector.Graph
module Diagnostic = Analysis.Diagnostic
module Verify = Analysis.Verify
module Apilint = Analysis.Apilint
module Corpuslint = Analysis.Corpuslint
module Gencheck = Analysis.Gencheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qn = Qname.of_string
let r s = Jtype.ref_of_string s

let has_code code ds = List.exists (fun d -> d.Diagnostic.code = code) ds

let codes ds =
  List.map (fun d -> d.Diagnostic.code) ds |> List.sort_uniq compare

let errors_only ds = Diagnostic.errors ds

(* ---------- the verifier's little world ---------- *)

let verifier_api () =
  Japi.Loader.load_string
    {|
    package p;
    class A { B getB(); static A make(); protected A hidden(); }
    class B extends A { }
    class C { C(A a); }
    interface I { A toA(); }
    abstract class Abs { }
    class D { }
    |}

let m_getB = Member.meth "getB" ~params:[] ~ret:(r "p.B")
let m_make = Member.meth ~static:true "make" ~params:[] ~ret:(r "p.A")
let m_hidden = Member.meth ~vis:Member.Protected "hidden" ~params:[] ~ret:(r "p.A")

let call_getB = Elem.Instance_call { owner = qn "p.A"; meth = m_getB; input = Elem.Receiver }

let j input elems = Jungloid.make ~input elems

(* sound chain: A --getB--> B --widen--> A --C(·)--> C *)
let verify_sound_chain () =
  let h = verifier_api () in
  let chain =
    j (r "p.A")
      [
        call_getB;
        Elem.Widen { from_ = r "p.B"; to_ = r "p.A" };
        Elem.Ctor_call
          { owner = qn "p.C"; ctor = Member.ctor [ ("a", r "p.A") ]; input = Elem.Param 0 };
      ]
  in
  check_int "no diagnostics" 0 (List.length (Verify.check h chain));
  check_bool "sound" true (Verify.sound h chain)

let verify_j001 () =
  let h = verifier_api () in
  (* getB : A -> B followed directly by getB : A -> ... does not compose *)
  let chain = j (r "p.A") [ call_getB; call_getB ] in
  check_bool "J001 fires" true (has_code "J001" (Verify.check h chain));
  check_bool "unsound" false (Verify.sound h chain)

let verify_j002 () =
  let h = verifier_api () in
  let phantom = Member.meth "nope" ~params:[] ~ret:(r "p.B") in
  let chain =
    j (r "p.A") [ Elem.Instance_call { owner = qn "p.A"; meth = phantom; input = Elem.Receiver } ]
  in
  check_bool "J002 fires" true (has_code "J002" (Verify.check h chain));
  (* same member, different param names / visibility info: still fine *)
  check_bool "declared member passes" true (Verify.sound h (j (r "p.A") [ call_getB ]))

let verify_j003 () =
  let h = verifier_api () in
  let bad = j (r "p.A") [ Elem.Widen { from_ = r "p.A"; to_ = r "p.D" } ] in
  let good = j (r "p.B") [ Elem.Widen { from_ = r "p.B"; to_ = r "p.A" } ] in
  check_bool "J003 fires" true (has_code "J003" (Verify.check h bad));
  check_bool "real widening passes" true (Verify.sound h good)

let verify_j004 () =
  let h = verifier_api () in
  let bad = j (r "p.A") [ Elem.Downcast { from_ = r "p.A"; to_ = r "p.D" } ] in
  let good = j (r "p.A") [ Elem.Downcast { from_ = r "p.A"; to_ = r "p.B" } ] in
  let via_iface = j (r "p.I") [ Elem.Downcast { from_ = r "p.I"; to_ = r "p.D" } ] in
  check_bool "J004 fires" true (has_code "J004" (Verify.check h bad));
  check_bool "downcast to subtype passes" true (Verify.sound h good);
  check_bool "interface crosscast passes" true (Verify.sound h via_iface)

let verify_j005 () =
  let h = verifier_api () in
  let bad =
    j (r "p.A") [ Elem.Static_call { owner = qn "p.A"; meth = m_make; input = Elem.Receiver } ]
  in
  let oob =
    j (r "p.A")
      [
        Elem.Ctor_call
          { owner = qn "p.C"; ctor = Member.ctor [ ("a", r "p.A") ]; input = Elem.Param 3 };
      ]
  in
  check_bool "J005: static call with receiver input" true
    (has_code "J005" (Verify.check h bad));
  check_bool "J005: param index out of range" true (has_code "J005" (Verify.check h oob));
  check_bool "static call with no input passes" true
    (Verify.sound h
       (j Jtype.Void [ Elem.Static_call { owner = qn "p.A"; meth = m_make; input = Elem.No_input } ]))

let verify_j006 () =
  let h = verifier_api () in
  let chain =
    j (r "p.A") [ Elem.Instance_call { owner = qn "p.A"; meth = m_hidden; input = Elem.Receiver } ]
  in
  let ds = Verify.check h chain in
  check_bool "J006 fires" true (has_code "J006" ds);
  check_bool "visibility is only a warning" true (Verify.sound h chain)

let verify_j008 () =
  let h = verifier_api () in
  let iface =
    j Jtype.Void [ Elem.Ctor_call { owner = qn "p.I"; ctor = Member.ctor []; input = Elem.No_input } ]
  in
  let abs =
    j Jtype.Void
      [ Elem.Ctor_call { owner = qn "p.Abs"; ctor = Member.ctor []; input = Elem.No_input } ]
  in
  check_bool "J008 on interface is an error" false (Verify.sound h iface);
  check_bool "J008 fires on interface" true (has_code "J008" (Verify.check h iface));
  check_bool "J008 fires on abstract class" true (has_code "J008" (Verify.check h abs));
  check_bool "abstract ctor is only a warning" true (Verify.sound h abs)

let verify_j009 () =
  let h = verifier_api () in
  let phantom = Member.meth "m" ~params:[] ~ret:(r "p.A") in
  let chain =
    j (r "x.Unknown")
      [ Elem.Instance_call { owner = qn "x.Unknown"; meth = phantom; input = Elem.Receiver } ]
  in
  let ds = Verify.check h chain in
  check_bool "J009 fires" true (has_code "J009" ds);
  check_bool "opaque owner is not an error" true (Verify.sound h chain)

(* ---------- API-model lint ---------- *)

let apilint_hierarchy_rules () =
  (* A001: reference to an undeclared type (closed over as synthetic) *)
  let h1 =
    Hierarchy.of_decls
      [ Decl.make ~methods:[ Member.meth "f" ~params:[] ~ret:(r "x.Gone") ] (qn "p.A") ]
  in
  check_bool "A001 fires" true (has_code "A001" (Apilint.lint_hierarchy h1));
  (* A002: duplicate member declaration *)
  let dup = Member.meth "f" ~params:[] ~ret:Jtype.Void in
  let h2 = Hierarchy.of_decls [ Decl.make ~methods:[ dup; dup ] (qn "p.A") ] in
  check_bool "A002 fires" true (has_code "A002" (Apilint.lint_hierarchy h2));
  (* A003: interface with a constructor *)
  let h3 =
    Hierarchy.of_decls [ Decl.make ~kind:Decl.Interface ~ctors:[ Member.ctor [] ] (qn "p.I") ]
  in
  check_bool "A003 fires" true (has_code "A003" (Apilint.lint_hierarchy h3));
  check_bool "A003 is an error" true (errors_only (Apilint.lint_hierarchy h3) <> []);
  (* A004: class extending an interface *)
  let h4 =
    Hierarchy.of_decls
      [ Decl.make ~kind:Decl.Interface (qn "p.I"); Decl.make ~extends:[ qn "p.I" ] (qn "p.A") ]
  in
  check_bool "A004 fires" true (has_code "A004" (Apilint.lint_hierarchy h4));
  (* A005: void parameter *)
  let h5 =
    Hierarchy.of_decls
      [
        Decl.make
          ~methods:[ Member.meth "f" ~params:[ ("x", Jtype.Void) ] ~ret:Jtype.Void ]
          (qn "p.A");
      ]
  in
  check_bool "A005 fires" true (has_code "A005" (Apilint.lint_hierarchy h5));
  (* negative: a well-formed little model is completely quiet *)
  let good = verifier_api () in
  check_int "clean model has no errors" 0 (List.length (errors_only (Apilint.lint_hierarchy good)))

let apilint_graph_rules () =
  let h = verifier_api () in
  (* A010: widening edge whose endpoints are unrelated *)
  let g = Graph.create () in
  let a = Graph.ensure_type_node g (r "p.A") in
  let d = Graph.ensure_type_node g (r "p.D") in
  Graph.add_edge g ~src:a (Elem.Widen { from_ = r "p.A"; to_ = r "p.D" }) ~dst:d;
  let ds = Apilint.lint_graph h g in
  check_bool "A010 fires" true (has_code "A010" ds);
  (* A011: self-loop conversion; A012: duplicate edge *)
  let g2 = Graph.create () in
  let a2 = Graph.ensure_type_node g2 (r "p.A") in
  Graph.add_edge g2 ~src:a2 (Elem.Widen { from_ = r "p.A"; to_ = r "p.A" }) ~dst:a2;
  let b2 = Graph.ensure_type_node g2 (r "p.B") in
  Graph.add_edge g2 ~src:b2 (Elem.Widen { from_ = r "p.B"; to_ = r "p.A" }) ~dst:a2;
  Graph.add_edge g2 ~src:b2 (Elem.Widen { from_ = r "p.B"; to_ = r "p.A" }) ~dst:a2;
  let ds2 = Apilint.lint_graph h g2 in
  check_bool "A011 fires" true (has_code "A011" ds2);
  (* A012 is defensive: [Graph.add_edge] already drops exact duplicates, so
     the duplicate add above must leave the graph (and the lint) quiet. *)
  check_bool "A012 stays quiet through add_edge" false (has_code "A012" ds2);
  (* A014: edge whose endpoints disagree with its elementary jungloid *)
  let g3 = Graph.create () in
  let a3 = Graph.ensure_type_node g3 (r "p.A") in
  let d3 = Graph.ensure_type_node g3 (r "p.D") in
  Graph.add_edge g3 ~src:a3 call_getB ~dst:d3;
  check_bool "A014 fires" true (has_code "A014" (Apilint.lint_graph h g3));
  (* negative: the signature graph of a clean model has no graph errors *)
  let sg = Prospector.Sig_graph.build h in
  check_int "signature graph is clean" 0 (List.length (errors_only (Apilint.lint_graph h sg)))

let apilint_bundled_model_clean () =
  let h = Apidata.Api.hierarchy () in
  let g, _stats = Apidata.Api.jungloid_graph () in
  let ds = Apilint.lint ~graph:g h in
  check_int "bundled model errors" 0 (Diagnostic.count Diagnostic.Error ds);
  check_int "bundled model warnings" 0 (Diagnostic.count Diagnostic.Warning ds)

(* ---------- corpus lint ---------- *)

let lint_api () =
  Japi.Loader.load_string
    {|
    package p;
    class A { A id(); B mk(); }
    class B extends A { }
    class D { }
    |}

let lint_corpus src =
  let api = lint_api () in
  Corpuslint.lint_program (Minijava.Resolve.parse_program ~api [ ("t.java", src) ])

let corpuslint_c001 () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        A m() { A a; return a.id(); }
      }
      |}
  in
  check_bool "C001 fires" true (has_code "C001" ds);
  check_bool "C001 is an error" true (errors_only ds <> []);
  (* negative: parameters are implicitly assigned *)
  let quiet = lint_corpus {|
      package c;
      class K { A m(A a) { return a.id(); } }
      |} in
  check_bool "params do not trip C001" false (has_code "C001" quiet)

let corpuslint_c002 () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p) { A a; A b = a.id(); a = p.id(); return b; }
      }
      |}
  in
  check_bool "C002 fires" true (has_code "C002" ds);
  let quiet =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p) { A a; a = p.id(); A b = a.id(); return b; }
      }
      |}
  in
  check_bool "def-then-use is quiet" false (has_code "C002" quiet)

let corpuslint_c003 () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p) { A a = p.id(); a = p.id(); return a; }
      }
      |}
  in
  check_bool "C003 fires" true (has_code "C003" ds);
  (* negative: a loop-carried redefinition is not a dead store *)
  let quiet =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p, boolean g) { A a = p.id(); while (g) { a = a.id(); } return a; }
      }
      |}
  in
  check_bool "looped stores are quiet" false (has_code "C003" quiet)

let corpuslint_c004 () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p) { A unused = p.id(); return p.id(); }
      }
      |}
  in
  check_bool "C004 fires" true (has_code "C004" ds)

let corpuslint_c005_c006 () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        D m(A p) { D d = (D) p; return d; }
      }
      |}
  in
  check_bool "C005 fires" true (has_code "C005" ds);
  check_bool "C005 is an error" true (errors_only ds <> []);
  let self_cast =
    lint_corpus
      {|
      package c;
      class K {
        A m(A p) { A a = (A) p; return a; }
      }
      |}
  in
  check_bool "C006 fires" true (has_code "C006" self_cast);
  check_int "C006 is not an error" 0 (List.length (errors_only self_cast));
  let good =
    lint_corpus
      {|
      package c;
      class K {
        B m(A p) { B b = (B) p.id(); return b; }
      }
      |}
  in
  check_bool "downcast to subtype is quiet" false (has_code "C005" good)

let corpuslint_bundled_clean () =
  let api = Apidata.Api.hierarchy () in
  let prog = Minijava.Resolve.parse_program ~api Apidata.Api.corpus_sources in
  let ds = Corpuslint.lint_program prog in
  check_int "bundled corpus errors" 0 (Diagnostic.count Diagnostic.Error ds);
  check_int "bundled corpus warnings" 0 (Diagnostic.count Diagnostic.Warning ds)

let corpuslint_positions () =
  let ds =
    lint_corpus
      {|
      package c;
      class K {
        A m() { A a; return a.id(); }
      }
      |}
  in
  let positioned =
    List.exists
      (fun d ->
        match d.Diagnostic.where with
        | Diagnostic.Source loc -> Minijava.Tast.loc_known loc && loc.Minijava.Tast.file = "t.java"
        | Diagnostic.Subject _ -> false)
      ds
  in
  check_bool "diagnostics carry file/line positions" true positioned

(* ---------- extraction gate ---------- *)

let extract_lint_gate () =
  let api = lint_api () in
  let src =
    {|
    package c;
    class K {
      B good(A p) { B b = (B) p.id(); return b; }
      B bad(A p) { D d = (D) p; B b = (B) p.id(); return b; }
    }
    |}
  in
  let prog = Minijava.Resolve.parse_program ~api [ ("gate.java", src) ] in
  let df = Mining.Dataflow.build prog in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let from_bad exs =
    List.filter (fun (e : Mining.Extract.example) -> contains ~sub:"bad" e.Mining.Extract.origin) exs
  in
  let gated = Mining.Extract.extract df in
  let ungated = Mining.Extract.extract ~lint_gate:false df in
  check_bool "gated extraction still mines the clean method" true
    (List.exists (fun (e : Mining.Extract.example) -> contains ~sub:"good" e.Mining.Extract.origin) gated);
  check_int "no examples from the flagged method" 0 (List.length (from_bad gated));
  check_bool "ungated extraction mines the flagged method" true (from_bad ungated <> [])

(* ---------- gencheck + Table 1 end-to-end ---------- *)

let table1_solutions_verified () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let ms = Apidata.Problems.run_all ~graph ~hierarchy () in
  List.iter
    (fun (m : Apidata.Problems.measured) ->
      List.iter
        (fun (res : Query.result) ->
          let jl = res.Query.jungloid in
          if not (Verify.sound hierarchy jl) then
            Alcotest.failf "unsound solution for %S: %s\n%s"
              m.Apidata.Problems.problem.Apidata.Problems.description
              (Jungloid.to_string jl)
              (String.concat "\n"
                 (List.map Diagnostic.to_string (Verify.check hierarchy jl)));
          if not (Gencheck.clean hierarchy jl) then
            Alcotest.failf "gencheck-dirty solution for %S: %s\n%s"
              m.Apidata.Problems.problem.Apidata.Problems.description
              (Jungloid.to_string jl)
              (String.concat "\n"
                 (List.map Diagnostic.to_string (Gencheck.check hierarchy jl))))
        m.Apidata.Problems.results)
    ms

(* The verifier as an oracle over the query path: every result of every
   Table 1 query, under both candidate sources, is sound — a verifier
   filtering the answers would drop nothing. *)
let table1_verified_filters_zero () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let frozen = Query.freeze graph in
  let checked = ref 0 in
  List.iter
    (fun strategy ->
      let settings = { Query.default_settings with strategy } in
      List.iter
        (fun (p : Apidata.Problems.t) ->
          let q = Query.query p.Apidata.Problems.tin p.Apidata.Problems.tout in
          List.iter
            (fun (res : Query.result) ->
              incr checked;
              if not (Verify.sound hierarchy res.Query.jungloid) then
                Alcotest.failf "problem %d (%s): unsound result %s"
                  p.Apidata.Problems.id
                  (Query.strategy_to_string strategy)
                  (Jungloid.to_string res.Query.jungloid))
            (Query.run ~settings ~frozen ~hierarchy q))
        Apidata.Problems.all)
    [ Query.BestFirst; Query.Exhaustive ];
  check_bool "some results checked" true (!checked > 0)

let gencheck_rejects_nonsense () =
  let h = verifier_api () in
  (* an empty chain renders to no statements at all ([Jungloid.make] rejects
     it, so build the record directly — G002 is the defense in depth) *)
  let empty = { Jungloid.input = Jtype.Void; elems = [] } in
  check_bool "empty chain is flagged" true (has_code "G002" (Gencheck.check h empty));
  (* a pure-widen chain is a legal pass-through and must be clean *)
  let pure_widen = j (r "p.B") [ Elem.Widen { from_ = r "p.B"; to_ = r "p.A" } ] in
  check_int "pure-widen chain is clean" 0 (List.length (Gencheck.check h pure_widen));
  (* a sound chain generates lint-clean code *)
  let good = j (r "p.A") [ call_getB ] in
  check_int "clean chain has no findings" 0 (List.length (Gencheck.check h good));
  ignore (codes [])

(* ---------- properties: verifier agrees with the search ---------- *)

(* ---------- mined typestate protocols (P/J-prefixed proto codes) ---------- *)

module Protocol = Analysis.Protocol
module Protolint = Analysis.Protolint
module Tast = Minijava.Tast

let pev ?(void = false) ?(discarded = false) m =
  { Protocol.ev_meth = m; ev_loc = Tast.no_loc; ev_void = void; ev_discarded = discarded }

let pseq ?(producer = Protocol.Call "p.Src.open/0") ty events =
  {
    Protocol.seq_type = ty;
    seq_producer = producer;
    seq_loc = Tast.no_loc;
    seq_events = events;
  }

(* Two iterations of the canonical probe-then-consume protocol: [has/0]
   always starts and is always followed; [next/0] always ends. *)
let iter_model () =
  Protocol.learn
    [
      pseq "p.It" [ pev "has/0"; pev "next/0" ];
      pseq "p.It" [ pev "has/0"; pev "next/0" ];
    ]

let protocol_learn_counts () =
  let m = iter_model () in
  check_bool "p.It modeled" true (Protocol.modeled m ~tname:"p.It");
  check_int "observations" 2 (Protocol.observations m ~tname:"p.It");
  check_int "sequence count" 2 (Protocol.sequence_count m);
  check_bool "has known" true (Protocol.known_method m ~tname:"p.It" ~meth:"has/0");
  check_bool "foo unknown" false (Protocol.known_method m ~tname:"p.It" ~meth:"foo/0");
  check_int "has occurrences" 2 (Protocol.occurrence_count m ~tname:"p.It" ~meth:"has/0");
  check_int "has starts" 2 (Protocol.start_count m ~tname:"p.It" ~meth:"has/0");
  check_int "has ends" 0 (Protocol.end_count m ~tname:"p.It" ~meth:"has/0");
  check_int "next ends" 2 (Protocol.end_count m ~tname:"p.It" ~meth:"next/0");
  check_int "has->next pairs" 2
    (Protocol.pair_count m ~tname:"p.It" ~prev:"has/0" ~next:"next/0");
  check_int "next->has pairs" 0
    (Protocol.pair_count m ~tname:"p.It" ~prev:"next/0" ~next:"has/0");
  (* below the evidence floor: one sequence models nothing *)
  let single = Protocol.learn [ pseq "p.One" [ pev "go/0" ] ] in
  check_bool "single-sequence type unmodeled" false
    (Protocol.modeled single ~tname:"p.One");
  check_bool "unmodeled start never deviant" false
    (Protocol.start_deviant single ~tname:"p.One" ~meth:"stop/0")

let protocol_deviance () =
  let m = iter_model () in
  check_bool "next never starts" true
    (Protocol.start_deviant m ~tname:"p.It" ~meth:"next/0");
  check_bool "has starts fine" false
    (Protocol.start_deviant m ~tname:"p.It" ~meth:"has/0");
  check_bool "next->has deviant" true
    (Protocol.pair_deviant m ~tname:"p.It" ~prev:"next/0" ~next:"has/0");
  check_bool "has->next observed" false
    (Protocol.pair_deviant m ~tname:"p.It" ~prev:"has/0" ~next:"next/0");
  check_bool "has must be followed" true
    (Protocol.must_follow m ~tname:"p.It" ~meth:"has/0" = Some "next/0");
  check_bool "next may end" true
    (Protocol.must_follow m ~tname:"p.It" ~meth:"next/0" = None);
  check_bool "next always terminal" true
    (Protocol.always_terminal m ~tname:"p.It" ~meth:"next/0");
  check_bool "has never terminal" false
    (Protocol.always_terminal m ~tname:"p.It" ~meth:"has/0");
  check_bool "start suggestion" true
    (Protocol.start_suggestion m ~tname:"p.It" = Some "has/0");
  (* smoothing orders never-seen below seen *)
  check_bool "deviant pair smoothed below observed pair" true
    (Protocol.pair_prob m ~tname:"p.It" ~prev:"next/0" ~next:"has/0"
    < Protocol.pair_prob m ~tname:"p.It" ~prev:"has/0" ~next:"next/0");
  (* the empty corpus accepts everything *)
  check_bool "empty model deviates nowhere" false
    (Protocol.start_deviant Protocol.empty ~tname:"p.It" ~meth:"next/0"
    || Protocol.pair_deviant Protocol.empty ~tname:"p.It" ~prev:"next/0"
         ~next:"has/0"
    || Protocol.must_follow Protocol.empty ~tname:"p.It" ~meth:"has/0" <> None);
  check_bool "unmodeled probabilities saturate" true
    (Protocol.start_prob Protocol.empty ~tname:"p.It" ~meth:"next/0" = 1.0)

let protolint_codes () =
  let m = iter_model () in
  let codes_of s = codes (Protolint.check m [ s ]) in
  (* P003: a fresh object's first call was never first in the corpus *)
  check_bool "P003 fires" true
    (has_code "P003" (Protolint.check m [ pseq "p.It" [ pev "next/0" ] ]));
  (* P006 replaces P003 when the object came from a downcast *)
  check_bool "P006 on cast producer" true
    (codes_of (pseq ~producer:Protocol.Cast "p.It" [ pev "next/0" ])
    = [ "P006" ]);
  (* P001: an out-of-order pair between two known methods *)
  check_bool "P001 fires" true
    (has_code "P001"
       (Protolint.check m
          [ pseq "p.It" [ pev "has/0"; pev "next/0"; pev "has/0" ] ]));
  (* P002: the receiver's life ends at a must-follow method *)
  check_bool "P002 alone" true
    (codes_of (pseq "p.It" [ pev "has/0" ]) = [ "P002" ]);
  (* P004: discarded result of an always-terminal call, Info only *)
  let p4 =
    Protolint.check m
      [ pseq "p.It" [ pev "has/0"; pev ~discarded:true "next/0" ] ]
  in
  check_bool "P004 fires" true (has_code "P004" p4);
  check_bool "P004 is info" true (errors_only p4 = [] && Diagnostic.count Diagnostic.Warning p4 = 0);
  (* P005: a method the corpus never calls on the type, Info only *)
  check_bool "P005 fires" true
    (has_code "P005"
       (Protolint.check m [ pseq "p.It" [ pev "has/0"; pev "foo/0" ] ]));
  (* negatives: the canonical sequence is clean; unmodeled types vacuous *)
  check_int "canonical sequence clean" 0
    (List.length (Protolint.check m [ pseq "p.It" [ pev "has/0"; pev "next/0" ] ]));
  check_int "unmodeled type vacuous" 0
    (List.length (Protolint.check m [ pseq "p.Other" [ pev "next/0" ] ]))

(* vetting synthesized jungloids against the same model *)

let m_open = Member.meth "open" ~params:[] ~ret:(r "p.It")
let m_has = Member.meth "has" ~params:[] ~ret:Jtype.(Prim Boolean)
let m_next = Member.meth "next" ~params:[] ~ret:(r "java.lang.Object")

let call_on owner meth =
  Elem.Instance_call { owner = qn owner; meth; input = Elem.Receiver }

let protolint_vet () =
  let m = iter_model () in
  (* J010: the chain's one call on a produced p.It was never first *)
  let j010 =
    Protolint.vet m
      (j (r "p.Src") [ call_on "p.Src" m_open; call_on "p.It" m_next ])
  in
  check_bool "J010 fires" true (has_code "J010" j010);
  (* J011: the chain abandons the object right after a must-follow call *)
  let j011 =
    Protolint.vet m
      (j (r "p.Src") [ call_on "p.Src" m_open; call_on "p.It" m_has ])
  in
  check_bool "J011 fires" true (has_code "J011" j011);
  (* J012: deviant first call on a downcast-produced object *)
  let j012 =
    Protolint.vet m
      (j
         (r "java.lang.Object")
         [
           Elem.Downcast { from_ = r "java.lang.Object"; to_ = r "p.It" };
           call_on "p.It" m_next;
         ])
  in
  check_bool "J012 fires" true (has_code "J012" j012);
  check_bool "J012 not J010" false (has_code "J010" j012);
  (* the query input has unknown provenance: never vetted *)
  check_int "input receiver unvetted" 0
    (List.length (Protolint.vet m (j (r "p.It") [ call_on "p.It" m_next ])));
  (* violations is the string rendering of the same findings *)
  check_int "violations mirror vet" (List.length j010)
    (List.length
       (Protolint.violations m
          (j (r "p.Src") [ call_on "p.Src" m_open; call_on "p.It" m_next ])))

(* the miner end to end on small corpora *)

let protomine_api () =
  Japi.Loader.load_string
    {|
    package q;
    class Src { Iter open(); }
    interface Iter { boolean has(); java.lang.Object next(); }
    |}

let mine_sequences src =
  let api = protomine_api () in
  let prog = Minijava.Resolve.parse_program ~api [ ("t.java", src) ] in
  Mining.Protomine.sequences (Mining.Dataflow.build prog)

let iter_seqs seqs =
  List.filter (fun (s : Protocol.sequence) -> s.Protocol.seq_type = "q.Iter") seqs

let protomine_reconstructs () =
  let seqs =
    mine_sequences
      {|
      package c;
      class User {
        void use(Src s) {
          Iter it = s.open();
          it.has();
          it.next();
        }
      }
      |}
  in
  match iter_seqs seqs with
  | [ s ] ->
      check_bool "producer is the producing call" true
        (s.Protocol.seq_producer = Protocol.Call "q.Src.open/0");
      check_bool "events in evaluation order" true
        (List.map (fun (e : Protocol.event) -> e.Protocol.ev_meth)
           s.Protocol.seq_events
        = [ "has/0"; "next/0" ]);
      check_bool "statement results marked discarded" true
        (List.for_all
           (fun (e : Protocol.event) -> e.Protocol.ev_discarded)
           s.Protocol.seq_events)
  | ss -> Alcotest.failf "expected one q.Iter sequence, got %d" (List.length ss)

let protomine_cast_producer () =
  let seqs =
    mine_sequences
      {|
      package c;
      class CastUser {
        void use(java.lang.Object o) {
          Iter it = (Iter) o;
          it.has();
        }
      }
      |}
  in
  match iter_seqs seqs with
  | [ s ] ->
      check_bool "cast producer" true (s.Protocol.seq_producer = Protocol.Cast)
  | ss -> Alcotest.failf "expected one q.Iter sequence, got %d" (List.length ss)

let protomine_interprocedural () =
  (* the callee's calls on its parameter splice into the caller's receiver
     stream, and the parameter yields no double-counted standalone sequence *)
  let seqs =
    mine_sequences
      {|
      package c;
      class Caller {
        static void drain(Iter inner) {
          inner.next();
        }
        void run(Src s) {
          Iter it = s.open();
          it.has();
          Caller.drain(it);
        }
      }
      |}
  in
  match iter_seqs seqs with
  | [ s ] ->
      check_bool "spliced events" true
        (List.map (fun (e : Protocol.event) -> e.Protocol.ev_meth)
           s.Protocol.seq_events
        = [ "has/0"; "next/0" ])
  | ss -> Alcotest.failf "expected one q.Iter sequence, got %d" (List.length ss)

(* ---------- qcheck: random Apigen worlds ---------- *)

type world = {
  w_h : Hierarchy.t;
  w_g : Graph.t;
  w_queries : Query.t list;
}

let world_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 20 80 in
    return
      (let h = Corpusgen.Workload.layered_api ~classes in
       let g = Prospector.Sig_graph.build h in
       let qs = Corpusgen.Workload.random_queries h g ~count:3 ~seed in
       { w_h = h; w_g = g; w_queries = qs }))

let prop_solutions_pass_verifier =
  QCheck2.Test.make ~name:"every Query.run solution passes the verifier" ~count:30
    world_gen (fun w ->
      List.for_all
        (fun q ->
          List.for_all
            (fun (r : Query.result) -> Verify.sound w.w_h r.Query.jungloid)
            (Query.run ~frozen:(Query.freeze w.w_g) ~hierarchy:w.w_h q))
        w.w_queries)

let prop_extracted_examples_sound =
  QCheck2.Test.make ~name:"extracted examples pass example_well_typed (verifier)"
    ~count:20
    QCheck2.Gen.(int_range 2 24)
    (fun branches ->
      let h, sources = Corpusgen.Workload.branchy_corpus ~branches in
      let prog = Minijava.Resolve.parse_program ~api:h sources in
      let df = Mining.Dataflow.build prog in
      let exs = Mining.Extract.extract df in
      List.for_all (Mining.Extract.example_well_typed h) exs)

let prop_reaching_defs_refine_producers =
  (* The flow-sensitive prepass may only narrow the flow-insensitive
     answer: every definition reaching a variable use is among that
     variable's producers. *)
  QCheck2.Test.make
    ~name:"flow-sensitive reaching defs are a subset of var_producers"
    ~count:20
    QCheck2.Gen.(int_range 2 24)
    (fun branches ->
      let h, sources = Corpusgen.Workload.branchy_corpus ~branches in
      let prog = Minijava.Resolve.parse_program ~api:h sources in
      let df = Analysis.Dataflow.build ~flow_sensitive:true prog in
      List.for_all
        (fun (m : Tast.tmeth) ->
          let method_key = Tast.method_key m in
          let ok = ref true in
          Tast.iter_exprs m.Tast.body (fun (e : Tast.texpr) ->
              match e.Tast.tdesc with
              | Tast.Tvar v
                when not (Analysis.Dataflow.is_param df ~method_key ~var:v) -> (
                  match Analysis.Dataflow.reaching_defs df e with
                  | None -> ()
                  | Some defs ->
                      let all =
                        Analysis.Dataflow.var_producers df ~method_key ~var:v
                      in
                      if not (List.for_all (fun d -> List.memq d all) defs)
                      then ok := false)
              | _ -> ());
          !ok)
        prog.Tast.methods)

let () =
  Alcotest.run "analysis"
    [
      ( "verify",
        [
          Alcotest.test_case "sound chain" `Quick verify_sound_chain;
          Alcotest.test_case "J001 composition" `Quick verify_j001;
          Alcotest.test_case "J002 member exists" `Quick verify_j002;
          Alcotest.test_case "J003 widening widens" `Quick verify_j003;
          Alcotest.test_case "J004 downcast related" `Quick verify_j004;
          Alcotest.test_case "J005 input slots" `Quick verify_j005;
          Alcotest.test_case "J006 visibility" `Quick verify_j006;
          Alcotest.test_case "J008 instantiability" `Quick verify_j008;
          Alcotest.test_case "J009 opaque owner" `Quick verify_j009;
        ] );
      ( "apilint",
        [
          Alcotest.test_case "hierarchy rules" `Quick apilint_hierarchy_rules;
          Alcotest.test_case "graph rules" `Quick apilint_graph_rules;
          Alcotest.test_case "bundled model clean" `Quick apilint_bundled_model_clean;
        ] );
      ( "corpuslint",
        [
          Alcotest.test_case "C001 use before any def" `Quick corpuslint_c001;
          Alcotest.test_case "C002 use before first def" `Quick corpuslint_c002;
          Alcotest.test_case "C003 dead store" `Quick corpuslint_c003;
          Alcotest.test_case "C004 unused local" `Quick corpuslint_c004;
          Alcotest.test_case "C005/C006 casts" `Quick corpuslint_c005_c006;
          Alcotest.test_case "positions" `Quick corpuslint_positions;
          Alcotest.test_case "bundled corpus clean" `Quick corpuslint_bundled_clean;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "extraction lint gate" `Quick extract_lint_gate;
          Alcotest.test_case "gencheck" `Quick gencheck_rejects_nonsense;
          Alcotest.test_case "table1 solutions verified" `Slow table1_solutions_verified;
          Alcotest.test_case "table1 verified filters zero" `Slow table1_verified_filters_zero;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "learned counts" `Quick protocol_learn_counts;
          Alcotest.test_case "deviance predicates" `Quick protocol_deviance;
          Alcotest.test_case "P codes fire and stay quiet" `Quick protolint_codes;
          Alcotest.test_case "jungloid vetting (J010-J012)" `Quick protolint_vet;
          Alcotest.test_case "miner reconstructs receiver sequences" `Quick
            protomine_reconstructs;
          Alcotest.test_case "miner records cast producers" `Quick
            protomine_cast_producer;
          Alcotest.test_case "miner splices through corpus calls" `Quick
            protomine_interprocedural;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solutions_pass_verifier;
            prop_extracted_examples_sound;
            prop_reaching_defs_refine_producers;
          ] );
    ]
