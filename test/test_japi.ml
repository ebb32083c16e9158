(* Tests for the .japi lexer, parser, loader, and printer. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let q = Qname.of_string

let load = Japi.Loader.load_string

let expect_error src =
  match Japi.Loader.load_string src with
  | exception Japi.Error.E e -> e
  | _ -> Alcotest.fail "expected a Japi.Error.E"

(* ---------- lexer ---------- *)

module L = Japi.Lexer

(* The production lexer's lanes as reference tokens. *)
let lex src =
  let lx = L.create (Japi.Names.create ()) in
  L.tokenize lx ~file:"t" src;
  List.init lx.L.length (fun k ->
      let kind : Ref_lexer.kind =
        match lx.L.kinds.(k) with
        | L.Ident -> Ident (Japi.Names.ident lx.L.names lx.L.idents.(k))
        | L.Kw_package -> Kw_package
        | L.Kw_import -> Kw_import
        | L.Kw_class -> Kw_class
        | L.Kw_interface -> Kw_interface
        | L.Kw_extends -> Kw_extends
        | L.Kw_implements -> Kw_implements
        | L.Kw_static -> Kw_static
        | L.Kw_public -> Kw_public
        | L.Kw_protected -> Kw_protected
        | L.Kw_private -> Kw_private
        | L.Kw_abstract -> Kw_abstract
        | L.Kw_final -> Kw_final
        | L.Lbrace -> Lbrace
        | L.Rbrace -> Rbrace
        | L.Lparen -> Lparen
        | L.Rparen -> Rparen
        | L.Semi -> Semi
        | L.Comma -> Comma
        | L.Dot -> Dot
        | L.Lbracket -> Lbracket
        | L.Rbracket -> Rbracket
        | L.At -> At
        | L.Eof -> Eof
      in
      { Ref_lexer.kind; line = lx.L.lines.(k); col = lx.L.cols.(k) })

let kinds src = List.map (fun (t : Ref_lexer.token) -> t.kind) (lex src)

let test_lexer_basic () =
  check_int "token count" 5 (List.length (kinds "class Foo { }"));
  (* class, Ident, '{', '}', Eof *)
  check_bool "class kw" true (List.mem Ref_lexer.Kw_class (kinds "class Foo { }"))

let test_lexer_comments () =
  let ks = kinds "class /* hi \n multi */ Foo { // trailing\n }" in
  check_bool "comments skipped" true
    (ks = [ Ref_lexer.Kw_class; Ident "Foo"; Lbrace; Rbrace; Eof ])

let test_lexer_positions () =
  let toks = Array.of_list (lex "class\n  Foo") in
  check_int "line of Foo" 2 toks.(1).Ref_lexer.line;
  check_int "col of Foo" 3 toks.(1).Ref_lexer.col

let test_lexer_bad_char () =
  match lex "class # Foo" with
  | exception Japi.Error.E e ->
      check_int "line" 1 e.Japi.Error.line;
      check_int "col" 7 e.Japi.Error.col
  | _ -> Alcotest.fail "expected lexer error"

let test_lexer_unterminated_comment () =
  match lex "/* oops" with
  | exception Japi.Error.E e ->
      check_bool "mentions comment" true
        (String.length e.Japi.Error.msg > 0)
  | _ -> Alcotest.fail "expected lexer error"

(* One load's lanes and names serve file after file: a long file's lanes
   are reused for a short one, and a name interned by the first keeps its
   id in the second. *)
let test_lexer_reuse () =
  let names = Japi.Names.create () in
  let lx = L.create names in
  let long = String.concat " " (List.init 3000 (fun i -> Printf.sprintf "n%d" (i mod 7))) in
  L.tokenize lx ~file:"a" long;
  check_int "long file" 3001 lx.L.length;
  let id = lx.L.idents.(0) in
  L.tokenize lx ~file:"b" "class n0";
  check_int "short file" 3 lx.L.length;
  check_int "same id" id lx.L.idents.(1);
  check_bool "keyword" true (lx.L.kinds.(0) = L.Kw_class)

(* Sources from random fragments: the differential check wants every kind
   of token, every kind of blank and comment, and the two lexical errors —
   the unexpected character as printable ASCII, as whole UTF-8 characters
   of two to four bytes, as a stray, truncated or surrogate-encoding byte
   sequence, and as a control character. *)
let fragment =
  let open QCheck2.Gen in
  let ident =
    let first = oneofl [ 'a'; 'z'; 'A'; 'Q'; '_'; '$' ] in
    let rest = oneofl [ 'a'; 'k'; 'Z'; '_'; '$'; '0'; '7'; '9' ] in
    map2
      (fun c cs -> String.make 1 c ^ String.of_seq (List.to_seq cs))
      first (list_size (int_range 0 4) rest)
  in
  frequency
    [
      (6, ident);
      ( 4,
        oneofl
          [ "package"; "import"; "class"; "interface"; "extends"; "implements"; "static";
            "public"; "protected"; "private"; "abstract"; "final" ] );
      (6, oneofl [ "{"; "}"; "("; ")"; ";"; ","; "."; "["; "]"; "@" ]);
      (8, oneofl [ " "; "  "; "\t"; "\r"; "\n"; "\r\n"; "\n\t" ]);
      (2, map (fun s -> "//" ^ s ^ "\n") (oneofl [ ""; " x"; "*/"; "/*" ]));
      (2, oneofl [ "/**/"; "/* a */"; "/* \n * b\n */"; "/*/ */"; "/***/" ]);
      (1, oneofl [ "#"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x90\xab"; "\xff"; "\xc3"; "\xed\xa0\x80"; "\x01"; "\x7f" ]);
      (1, return "/* never closed");
      (1, return "/");
    ]

let source_gen =
  QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 40) fragment))

let prop_lexer_matches_reference =
  QCheck2.Test.make ~name:"lanes match the reference lexer" ~count:2000
    ~print:(Printf.sprintf "%S") source_gen (fun src ->
      let outcome f = match f () with v -> Ok v | exception Japi.Error.E e -> Error e in
      let reference = outcome (fun () -> Array.to_list (Ref_lexer.tokenize ~file:"t" src)) in
      let lanes = outcome (fun () -> lex src) in
      reference = lanes
      && match lanes with Error e -> String.is_valid_utf_8 e.Japi.Error.msg | Ok _ -> true)

(* ---------- parser + loader ---------- *)

let test_parse_simple_class () =
  let h =
    load
      {|
      package demo;
      public class Point {
        Point(int x, int y);
        int getX();
        demo.Point translate(demo.Point delta);
        static Point origin();
      }
      |}
  in
  let d = Hierarchy.find h (q "demo.Point") in
  check_int "ctors" 1 (List.length d.Decl.ctors);
  check_int "methods" 3 (List.length d.Decl.methods);
  let origin = List.find (fun (m : Member.meth) -> m.mname = "origin") d.Decl.methods in
  check_bool "origin static" true origin.Member.mstatic;
  let translate =
    List.find (fun (m : Member.meth) -> m.mname = "translate") d.Decl.methods
  in
  check_bool "param type resolved" true
    (match translate.Member.params with
    | [ (_, Jtype.Ref p) ] -> Qname.equal p (q "demo.Point")
    | _ -> false)

let test_parse_interface_and_extends () =
  let h =
    load
      {|
      package x;
      interface A { }
      interface B extends A { }
      class C implements B { }
      class D extends C implements A { }
      |}
  in
  check_bool "B <= A" true (Hierarchy.is_subclass h (q "x.B") (q "x.A"));
  check_bool "D <= A" true (Hierarchy.is_subclass h (q "x.D") (q "x.A"));
  check_bool "D <= C" true (Hierarchy.is_subclass h (q "x.D") (q "x.C"));
  let b = Hierarchy.find h (q "x.B") in
  check_bool "interface abstract" true b.Decl.abstract

let test_parse_fields_arrays () =
  let h =
    load
      {|
      package x;
      class Buf {
        byte[] data;
        static Buf[] pool;
        String[][] names;
      }
      |}
  in
  let d = Hierarchy.find h (q "x.Buf") in
  let field n = List.find (fun (f : Member.field) -> f.fname = n) d.Decl.fields in
  check_string "byte[]" "byte[]" (Jtype.to_string (field "data").Member.ftype);
  check_bool "static pool" true (field "pool").Member.fstatic;
  check_string "string[][]" "java.lang.String[][]"
    (Jtype.to_string (field "names").Member.ftype)

let test_visibility_and_deprecated () =
  let h =
    load
      {|
      package x;
      class V {
        private int secret();
        protected V clone2();
        @Deprecated Object legacy();
      }
      |}
  in
  let d = Hierarchy.find h (q "x.V") in
  let m n = List.find (fun (m : Member.meth) -> m.mname = n) d.Decl.methods in
  check_bool "private" true ((m "secret").Member.mvis = Member.Private);
  check_bool "protected" true ((m "clone2").Member.mvis = Member.Protected);
  check_bool "deprecated" true (m "legacy").Member.mdeprecated

let test_object_string_fallback () =
  let h = load "package x; class F { String name(); Object raw(); }" in
  let d = Hierarchy.find h (q "x.F") in
  let m n = List.find (fun (m : Member.meth) -> m.mname = n) d.Decl.methods in
  check_string "String resolves to java.lang" "java.lang.String"
    (Jtype.to_string (m "name").Member.ret);
  check_string "Object resolves to java.lang" "java.lang.Object"
    (Jtype.to_string (m "raw").Member.ret)

let test_cross_file_resolution () =
  let h =
    Japi.Loader.load_files
      [
        ("a", "package aa; class Alpha { bb.Beta toBeta(); }");
        ("b", "package bb; class Beta { Alpha back(); }");
      ]
  in
  let beta = Hierarchy.find h (q "bb.Beta") in
  let back = List.hd beta.Decl.methods in
  (* "Alpha" is simple but globally unique -> resolves to aa.Alpha *)
  check_string "unique simple name" "aa.Alpha" (Jtype.to_string back.Member.ret)

let test_import_resolution () =
  let h =
    Japi.Loader.load_files
      [
        ("a", "package p1; class Thing { }");
        ("b", "package p2; class Thing { }");
        ("c", "package q; import p2.Thing; class User { Thing get(); }");
      ]
  in
  let u = Hierarchy.find h (q "q.User") in
  check_string "import wins" "p2.Thing"
    (Jtype.to_string (List.hd u.Decl.methods).Member.ret)

let test_ambiguous_simple_name () =
  let e =
    match
      Japi.Loader.load_files
        [
          ("a", "package p1; class Thing { }");
          ("b", "package p2; class Thing { }");
          ("c", "package q; class User { Thing get(); }");
        ]
    with
    | exception Japi.Error.E e -> e
    | _ -> Alcotest.fail "expected ambiguity error"
  in
  check_bool "mentions ambiguity" true
    (String.length e.Japi.Error.msg > 0
    && String.sub e.Japi.Error.msg 0 9 = "ambiguous")

let test_unknown_name_becomes_opaque () =
  let h = load "package x; class F { ext.Widget gadget(); }" in
  check_bool "opaque decl added" true (Hierarchy.mem h (q "ext.Widget"));
  check_bool "synthetic" true (Hierarchy.find h (q "ext.Widget")).Decl.synthetic

let test_duplicate_across_files () =
  let e =
    match
      Japi.Loader.load_files
        [ ("a", "package p; class X { }"); ("b", "package p; class X { }") ]
    with
    | exception Japi.Error.E e -> e
    | _ -> Alcotest.fail "expected duplicate error"
  in
  check_string "file" "b" e.Japi.Error.file

let test_class_extends_interface_rejected () =
  let e = expect_error "package x; interface I { } class C extends I { }" in
  check_bool "msg mentions not a class" true
    (String.length e.Japi.Error.msg > 0)

let test_interface_extends_class_rejected () =
  let e = expect_error "package x; class C { } interface I extends C { }" in
  check_bool "got error" true (e.Japi.Error.line > 0)

let test_implements_class_rejected () =
  let e = expect_error "package x; class A { } class B implements A { }" in
  check_bool "got error" true (e.Japi.Error.line > 0)

let test_inheritance_cycle_rejected () =
  let e = expect_error "package x; interface A extends B { } interface B extends A { }" in
  check_bool "cycle reported" true
    (String.length e.Japi.Error.msg >= 5)

let test_interface_ctor_rejected () =
  let e = expect_error "package x; interface I { I(); }" in
  check_bool "reports constructor" true (String.length e.Japi.Error.msg > 0)

let test_syntax_error_located () =
  let e = expect_error "package x;\nclass C {\n  int ();\n}" in
  check_int "line" 3 e.Japi.Error.line

let test_constructor_vs_method () =
  let h =
    load
      {|
      package x;
      class Conn {
        Conn(String url);
        Conn dup();
      }
      |}
  in
  let d = Hierarchy.find h (q "x.Conn") in
  check_int "one ctor" 1 (List.length d.Decl.ctors);
  check_int "one method" 1 (List.length d.Decl.methods)

(* ---------- printer round trip ---------- *)

let strip_synthetic h =
  List.filter (fun (d : Decl.t) -> not d.Decl.synthetic) (Hierarchy.decls h)

let test_roundtrip () =
  let src =
    {|
    package rt;
    interface Readable { String read(); }
    abstract class Stream implements Readable {
      protected int bufsize;
      Stream(int size);
      @Deprecated static Stream open(String name);
      byte[] bytes(int max, boolean strict);
    }
    class FileStream extends Stream {
      FileStream(String path);
    }
    |}
  in
  let h1 = load src in
  let h2 = Japi.Loader.load_files (Japi.Printer.print_files h1) in
  let d1 = strip_synthetic h1 and d2 = strip_synthetic h2 in
  check_int "same decl count" (List.length d1) (List.length d2);
  List.iter2
    (fun (a : Decl.t) (b : Decl.t) ->
      check_bool (Printf.sprintf "decl %s equal" (Qname.to_string a.Decl.dname)) true
        (Decl.equal a b))
    d1 d2

let test_roundtrip_multi_package () =
  let h1 =
    Japi.Loader.load_files
      [
        ("a", "package aa; class Alpha { bb.Beta toBeta(); }");
        ("b", "package bb; class Beta { aa.Alpha back(); }");
      ]
  in
  let h2 = Japi.Loader.load_files (Japi.Printer.print_files h1) in
  check_int "decl count" (List.length (strip_synthetic h1))
    (List.length (strip_synthetic h2))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "japi"
    [
      ( "lexer",
        [
          tc "basic" test_lexer_basic;
          tc "comments" test_lexer_comments;
          tc "positions" test_lexer_positions;
          tc "bad char" test_lexer_bad_char;
          tc "unterminated comment" test_lexer_unterminated_comment;
          tc "lanes reused across files" test_lexer_reuse;
          QCheck_alcotest.to_alcotest prop_lexer_matches_reference;
        ] );
      ( "parser",
        [
          tc "simple class" test_parse_simple_class;
          tc "interfaces and extends" test_parse_interface_and_extends;
          tc "fields and arrays" test_parse_fields_arrays;
          tc "visibility and deprecated" test_visibility_and_deprecated;
          tc "constructor vs method" test_constructor_vs_method;
          tc "syntax error located" test_syntax_error_located;
        ] );
      ( "loader",
        [
          tc "Object/String fallback" test_object_string_fallback;
          tc "cross-file resolution" test_cross_file_resolution;
          tc "import resolution" test_import_resolution;
          tc "ambiguous simple name" test_ambiguous_simple_name;
          tc "unknown becomes opaque" test_unknown_name_becomes_opaque;
          tc "duplicate across files" test_duplicate_across_files;
          tc "class extends interface" test_class_extends_interface_rejected;
          tc "interface extends class" test_interface_extends_class_rejected;
          tc "implements class" test_implements_class_rejected;
          tc "inheritance cycle" test_inheritance_cycle_rejected;
          tc "interface constructor" test_interface_ctor_rejected;
        ] );
      ( "printer",
        [
          tc "roundtrip" test_roundtrip;
          tc "roundtrip multi package" test_roundtrip_multi_package;
        ] );
    ]
