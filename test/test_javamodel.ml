(* Unit and property tests for the javamodel substrate. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Builder = Javamodel.Builder

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A small diamond hierarchy used by several tests:

   Object
     |            Shape (interface)
   Widget  ----implements----^
     |
   Button       Canvas extends Widget
     |
   IconButton                              *)
let diamond () =
  let b = Builder.create ~default_pkg:"ui" () in
  Builder.iface b "Shape";
  Builder.cls b "Widget" ~implements:[ "Shape" ];
  Builder.cls b "Button" ~extends:"Widget";
  Builder.cls b "IconButton" ~extends:"Button";
  Builder.cls b "Canvas" ~extends:"Widget";
  Builder.hierarchy b

let q s = Qname.of_string s

(* ---------- Qname ---------- *)

let test_qname_roundtrip () =
  let n = q "java.lang.Object" in
  check_string "to_string" "java.lang.Object" (Qname.to_string n);
  check_string "simple" "Object" (Qname.simple n);
  check_string "pkg" "java.lang" (Qname.package_string n);
  check_bool "equal object_qname" true (Qname.equal n Qname.object_qname)

let test_qname_default_package () =
  let n = q "Foo" in
  check_string "simple" "Foo" (Qname.simple n);
  check_string "pkg empty" "" (Qname.package_string n);
  check_string "to_string" "Foo" (Qname.to_string n)

let test_qname_same_package () =
  check_bool "same" true (Qname.same_package (q "a.b.C") (q "a.b.D"));
  check_bool "different" false (Qname.same_package (q "a.b.C") (q "a.c.C"));
  check_bool "default vs named" false (Qname.same_package (q "C") (q "a.C"))

let test_qname_order_consistent_with_equal () =
  let a = q "a.b.C" and b = q "a.b.C" and c = q "a.b.D" in
  check_int "compare equal" 0 (Qname.compare a b);
  check_bool "compare distinct" true (Qname.compare a c <> 0)

(* ---------- Jtype ---------- *)

let test_jtype_strings () =
  check_string "ref" "java.lang.String" (Jtype.to_string Jtype.string_t);
  check_string "array" "java.lang.String[]" (Jtype.to_string (Jtype.array Jtype.string_t));
  check_string "array of array" "int[][]"
    (Jtype.to_string (Jtype.array (Jtype.array (Jtype.Prim Jtype.Int))));
  check_string "simple" "String[]" (Jtype.simple_string (Jtype.array Jtype.string_t));
  check_string "void" "void" (Jtype.to_string Jtype.Void)

let test_jtype_is_reference () =
  check_bool "ref" true (Jtype.is_reference Jtype.object_t);
  check_bool "array" true (Jtype.is_reference (Jtype.array (Jtype.Prim Jtype.Int)));
  check_bool "prim" false (Jtype.is_reference (Jtype.Prim Jtype.Int));
  check_bool "void" false (Jtype.is_reference Jtype.Void)

let test_jtype_prims () =
  List.iter
    (fun s ->
      match Jtype.prim_of_string s with
      | Some p -> check_string "roundtrip" s (Jtype.prim_to_string p)
      | None -> Alcotest.failf "%s should be primitive" s)
    [ "boolean"; "byte"; "char"; "short"; "int"; "long"; "float"; "double" ];
  check_bool "not prim" true (Jtype.prim_of_string "Integer" = None)

let test_jtype_element () =
  check_bool "element of array" true
    (Jtype.element (Jtype.array Jtype.string_t) = Some Jtype.string_t);
  check_bool "element of ref" true (Jtype.element Jtype.string_t = None)

(* ---------- Hierarchy: subtyping ---------- *)

let test_subclass_reflexive_transitive () =
  let h = diamond () in
  check_bool "reflexive" true (Hierarchy.is_subclass h (q "ui.Button") (q "ui.Button"));
  check_bool "direct" true (Hierarchy.is_subclass h (q "ui.Button") (q "ui.Widget"));
  check_bool "transitive" true
    (Hierarchy.is_subclass h (q "ui.IconButton") (q "ui.Widget"));
  check_bool "via interface" true
    (Hierarchy.is_subclass h (q "ui.IconButton") (q "ui.Shape"));
  check_bool "to object" true
    (Hierarchy.is_subclass h (q "ui.IconButton") Qname.object_qname);
  check_bool "not sideways" false
    (Hierarchy.is_subclass h (q "ui.Canvas") (q "ui.Button"));
  check_bool "not up-down" false
    (Hierarchy.is_subclass h (q "ui.Widget") (q "ui.Button"))

let test_interface_widens_to_object () =
  let h = diamond () in
  check_bool "shape <= object" true
    (Hierarchy.is_subtype h (Jtype.ref_ (q "ui.Shape")) Jtype.object_t)

let test_array_subtyping () =
  let h = diamond () in
  let arr t = Jtype.array (Jtype.ref_ (q t)) in
  check_bool "covariant" true (Hierarchy.is_subtype h (arr "ui.Button") (arr "ui.Widget"));
  check_bool "array to object" true (Hierarchy.is_subtype h (arr "ui.Button") Jtype.object_t);
  check_bool "not contravariant" false
    (Hierarchy.is_subtype h (arr "ui.Widget") (arr "ui.Button"));
  check_bool "prim arrays invariant" true
    (Hierarchy.is_subtype h
       (Jtype.array (Jtype.Prim Jtype.Int))
       (Jtype.array (Jtype.Prim Jtype.Int)));
  check_bool "prim arrays distinct" false
    (Hierarchy.is_subtype h
       (Jtype.array (Jtype.Prim Jtype.Int))
       (Jtype.array (Jtype.Prim Jtype.Long)))

let test_prim_subtyping () =
  let h = diamond () in
  check_bool "int <= int" true
    (Hierarchy.is_subtype h (Jtype.Prim Jtype.Int) (Jtype.Prim Jtype.Int));
  check_bool "int not <= object" false
    (Hierarchy.is_subtype h (Jtype.Prim Jtype.Int) Jtype.object_t)

let test_supers_and_subtypes_inverse () =
  let h = diamond () in
  let supers = Hierarchy.supers h (q "ui.IconButton") in
  check_bool "widget in supers" true (Qname.Set.mem (q "ui.Widget") supers);
  check_bool "shape in supers" true (Qname.Set.mem (q "ui.Shape") supers);
  check_bool "self not in supers" false (Qname.Set.mem (q "ui.IconButton") supers);
  let subs = Hierarchy.subtypes h (q "ui.Widget") in
  check_bool "iconbutton in subs" true (Qname.Set.mem (q "ui.IconButton") subs);
  check_bool "canvas in subs" true (Qname.Set.mem (q "ui.Canvas") subs);
  check_bool "shape not in subs" false (Qname.Set.mem (q "ui.Shape") subs)

let test_depth () =
  let h = diamond () in
  check_int "object" 0 (Hierarchy.depth h Qname.object_qname);
  check_int "widget" 2 (Hierarchy.depth h (q "ui.Widget"));
  (* Widget -> Shape -> Object is the longest chain *)
  check_int "button" 3 (Hierarchy.depth h (q "ui.Button"));
  check_int "iconbutton" 4 (Hierarchy.depth h (q "ui.IconButton"))

let test_ensure_closed_adds_opaque () =
  let d =
    Decl.make
      ~methods:[ Member.meth "get" ~params:[] ~ret:(Jtype.ref_of_string "ext.Missing") ]
      (q "a.Foo")
  in
  let h = Hierarchy.of_decls [ d ] in
  check_bool "missing declared" true (Hierarchy.mem h (q "ext.Missing"));
  let m = Hierarchy.find h (q "ext.Missing") in
  check_bool "synthetic" true m.Decl.synthetic;
  check_bool "widens to object" true
    (Hierarchy.is_subclass h (q "ext.Missing") Qname.object_qname)

let test_duplicate_decl_rejected () =
  let d1 = Decl.make (q "a.Foo") and d2 = Decl.make (q "a.Foo") in
  Alcotest.check_raises "duplicate" (Hierarchy.Duplicate_decl (q "a.Foo")) (fun () ->
      ignore (Hierarchy.of_decls [ d1; d2 ]))

let test_unknown_type_raises () =
  let h = diamond () in
  Alcotest.check_raises "unknown" (Hierarchy.Unknown_type (q "no.Such")) (fun () ->
      ignore (Hierarchy.find h (q "no.Such")))

(* ---------- Hierarchy: member lookup & dispatch ---------- *)

let member_model () =
  let b = Builder.create ~default_pkg:"m" () in
  Builder.cls b "Base";
  Builder.meth b "name" ~params:[] ~ret:"java.lang.String";
  Builder.meth b "resize" ~params:[ "int" ] ~ret:"void";
  Builder.field b "label" ~typ:"java.lang.String";
  Builder.cls b "Derived" ~extends:"Base";
  Builder.meth b "name" ~params:[] ~ret:"java.lang.String";
  Builder.cls b "Other" ~extends:"Base";
  Builder.hierarchy b

let test_lookup_method_inherited () =
  let h = member_model () in
  (match Hierarchy.lookup_method h (q "m.Derived") "resize" ~arity:1 with
  | Some (owner, m) ->
      check_string "owner" "m.Base" (Qname.to_string owner);
      check_string "name" "resize" m.Member.mname
  | None -> Alcotest.fail "resize should be found via Base");
  (match Hierarchy.lookup_method h (q "m.Derived") "name" ~arity:0 with
  | Some (owner, _) -> check_string "override wins" "m.Derived" (Qname.to_string owner)
  | None -> Alcotest.fail "name should be found");
  check_bool "wrong arity" true
    (Hierarchy.lookup_method h (q "m.Derived") "name" ~arity:2 = None)

let test_lookup_field_inherited () =
  let h = member_model () in
  match Hierarchy.lookup_field h (q "m.Derived") "label" with
  | Some (owner, f) ->
      check_string "owner" "m.Base" (Qname.to_string owner);
      check_bool "type" true (Jtype.equal f.Member.ftype Jtype.string_t)
  | None -> Alcotest.fail "label should be found via Base"

let test_dispatch_targets () =
  let h = member_model () in
  let targets = Hierarchy.dispatch_targets h (q "m.Base") "name" ~arity:0 in
  let owners = List.map (fun (o, _) -> Qname.to_string o) targets in
  check Alcotest.(list string) "both decls" [ "m.Base"; "m.Derived" ] owners;
  let resize = Hierarchy.dispatch_targets h (q "m.Base") "resize" ~arity:1 in
  check_int "only base declares resize" 1 (List.length resize)

(* ---------- property tests ---------- *)

let qname_gen =
  QCheck2.Gen.(
    let seg = oneofl [ "a"; "b"; "c"; "pkg"; "util" ] in
    let name = oneofl [ "Foo"; "Bar"; "Baz"; "Qux" ] in
    map2 (fun pkg n -> Qname.make ~pkg n) (list_size (int_bound 3) seg) name)

let prop_qname_roundtrip =
  QCheck2.Test.make ~name:"qname of_string/to_string roundtrip" ~count:200 qname_gen
    (fun n -> Qname.equal n (Qname.of_string (Qname.to_string n)))

(* Random small hierarchies: each class i extends some class j < i. *)
let hierarchy_gen =
  QCheck2.Gen.(
    let* n = int_range 1 15 in
    let* parents = list_repeat n (int_bound (n - 1)) in
    let parents = Array.of_list parents in
    return
      (let b = Builder.create ~default_pkg:"g" () in
       Builder.cls b "C0";
       for i = 1 to n - 1 do
         let p = min (i - 1) parents.(i) in
         Builder.cls b (Printf.sprintf "C%d" i) ~extends:(Printf.sprintf "C%d" p)
       done;
       (Builder.hierarchy b, n)))

let prop_subclass_transitive =
  QCheck2.Test.make ~name:"is_subclass is transitive" ~count:100 hierarchy_gen
    (fun (h, n) ->
      let names = List.init n (fun i -> q (Printf.sprintf "g.C%d" i)) in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun c ->
                  (not (Hierarchy.is_subclass h a b && Hierarchy.is_subclass h b c))
                  || Hierarchy.is_subclass h a c)
                names)
            names)
        names)

let prop_supers_subtypes_dual =
  QCheck2.Test.make ~name:"a in supers(b) iff b in subtypes(a)" ~count:100 hierarchy_gen
    (fun (h, n) ->
      let names = List.init n (fun i -> q (Printf.sprintf "g.C%d" i)) in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Qname.Set.mem a (Hierarchy.supers h b)
              = Qname.Set.mem b (Hierarchy.subtypes h a))
            names)
        names)

let prop_depth_decreases_upward =
  QCheck2.Test.make ~name:"depth of super < depth of sub" ~count:100 hierarchy_gen
    (fun (h, n) ->
      List.for_all
        (fun i ->
          let sub = q (Printf.sprintf "g.C%d" i) in
          List.for_all
            (fun sup -> Hierarchy.depth h sup < Hierarchy.depth h sub)
            (Qname.Set.elements (Hierarchy.supers h sub)))
        (List.init n (fun i -> i)))

(* Memos across mutation. A warmed copy of a random hierarchy takes a
   random sequence of adds of fresh names and body-only replaces (which
   keep both memos), adds of names whose depth was read while they were
   undeclared, removals and supertype-changing replaces (which drop them),
   with memo reads and warms interleaved. Afterwards [depth] and [subtypes] must
   match a fresh [of_decls] over the surviving declarations, and the
   original must still answer for its own. Supertypes always name
   declarations that exist and were created earlier, and only a name no
   one extends is removed, so every state is closed and acyclic. *)
let mutation_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* initial = int_range 1 12 in
    let* steps = int_range 1 25 in
    return (seed, initial, steps))

let prop_memos_survive_mutation =
  QCheck2.Test.make ~name:"memos of a mutated warm copy = a fresh of_decls" ~count:200
    mutation_gen (fun (seed, initial, steps) ->
      let rng = Random.State.make [| seed |] in
      let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
      let born = Hashtbl.create 16 (* name -> creation number *) in
      let decls = ref [] (* the live declarations, oldest first *) in
      (* up to [max] distinct supertypes of kind [k], created before [n] *)
      let supers n k max =
        match
          List.filter
            (fun (d : Decl.t) -> d.Decl.kind = k && Hashtbl.find born d.Decl.dname < n)
            !decls
        with
        | [] -> []
        | older ->
            List.sort_uniq Qname.compare
              (List.init (Random.State.int rng (max + 1)) (fun _ -> (pick older).Decl.dname))
      in
      let with_supers (d : Decl.t) =
        let n = Hashtbl.find born d.Decl.dname in
        match d.Decl.kind with
        | Decl.Interface -> { d with Decl.extends = supers n Decl.Interface 2 }
        | Decl.Class ->
            { d with Decl.extends = supers n Decl.Class 1; implements = supers n Decl.Interface 2 }
      in
      let next_name () = Qname.make ~pkg:[ "m" ] (Printf.sprintf "T%d" (Hashtbl.length born)) in
      let create () =
        let dname = next_name () in
        Hashtbl.replace born dname (Hashtbl.length born);
        let kind = if Random.State.bool rng then Decl.Class else Decl.Interface in
        with_supers (Decl.make ~kind dname)
      in
      for _ = 1 to initial do
        decls := !decls @ [ create () ]
      done;
      let original = !decls in
      let h0 = Hierarchy.of_decls original in
      Hierarchy.warm h0;
      let h = Hierarchy.copy h0 in
      let extended (x : Decl.t) =
        List.exists
          (fun (d : Decl.t) ->
            List.exists (Qname.equal x.Decl.dname) (d.Decl.extends @ d.Decl.implements))
          !decls
      in
      let replace (d' : Decl.t) =
        Hierarchy.replace h d';
        decls :=
          List.map
            (fun (d : Decl.t) -> if Qname.equal d.Decl.dname d'.Decl.dname then d' else d)
            !decls
      in
      let add () =
        let d = create () in
        Hierarchy.add h d;
        decls := !decls @ [ d ]
      in
      for _ = 1 to steps do
        (match (Random.State.int rng 5, !decls) with
        | 0, _ | _, [] -> add ()
        | 4, _ ->
            (* a depth read while the name is undeclared, memoized as an
               opaque class's: the add must not keep it *)
            ignore (Hierarchy.depth h (next_name ()));
            add ()
        | 1, ds ->
            (* the newest declaration is never extended, so a leaf exists *)
            let d = pick (List.filter (fun d -> not (extended d)) ds) in
            Hierarchy.remove h d.Decl.dname;
            decls := List.filter (fun x -> x != d) ds
        | 2, ds ->
            let d = pick ds in
            replace
              { d with Decl.methods = Member.meth "m" ~params:[] ~ret:Jtype.object_t :: d.Decl.methods }
        | _, ds -> replace (with_supers (pick ds)));
        match (Random.State.int rng 3, !decls) with
        | 0, _ | _, [] -> Hierarchy.warm h
        | 1, ds ->
            List.iter
              (fun (d : Decl.t) ->
                if Random.State.bool rng then ignore (Hierarchy.depth h d.Decl.dname))
              ds
        | _, ds -> ignore (Hierarchy.subtypes h (pick ds).Decl.dname)
      done;
      let agree h decls =
        let fresh = Hierarchy.of_decls decls in
        List.for_all
          (fun q ->
            Hierarchy.depth h q = Hierarchy.depth fresh q
            && Qname.Set.equal (Hierarchy.subtypes h q) (Hierarchy.subtypes fresh q))
          (Qname.object_qname :: List.map (fun (d : Decl.t) -> d.Decl.dname) decls)
      in
      agree h !decls && agree h0 original)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "javamodel"
    [
      ( "qname",
        [
          tc "roundtrip" test_qname_roundtrip;
          tc "default package" test_qname_default_package;
          tc "same_package" test_qname_same_package;
          tc "order" test_qname_order_consistent_with_equal;
        ] );
      ( "jtype",
        [
          tc "strings" test_jtype_strings;
          tc "is_reference" test_jtype_is_reference;
          tc "primitives" test_jtype_prims;
          tc "element" test_jtype_element;
        ] );
      ( "subtyping",
        [
          tc "subclass reflexive/transitive" test_subclass_reflexive_transitive;
          tc "interface widens to Object" test_interface_widens_to_object;
          tc "array covariance" test_array_subtyping;
          tc "primitives" test_prim_subtyping;
          tc "supers/subtypes inverse" test_supers_and_subtypes_inverse;
          tc "depth" test_depth;
        ] );
      ( "table",
        [
          tc "ensure_closed adds opaque" test_ensure_closed_adds_opaque;
          tc "duplicate rejected" test_duplicate_decl_rejected;
          tc "unknown raises" test_unknown_type_raises;
        ] );
      ( "members",
        [
          tc "lookup_method inherited" test_lookup_method_inherited;
          tc "lookup_field inherited" test_lookup_field_inherited;
          tc "dispatch_targets" test_dispatch_targets;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_qname_roundtrip;
            prop_subclass_transitive;
            prop_supers_subtypes_dual;
            prop_depth_decreases_upward;
            prop_memos_survive_mutation;
          ] );
    ]
