module Builder = Javamodel.Builder

type params = {
  classes : int;
  packages : int;
  methods_per_class : int;
  subclass_fraction : float;
  void_fraction : float;
  locality : float;
  seed : int;
}

let default_params =
  {
    classes = 200;
    packages = 8;
    methods_per_class = 5;
    subclass_fraction = 0.3;
    void_fraction = 0.1;
    locality = 0.0;
    seed = 42;
  }

let pkg_of p i = Printf.sprintf "synth.p%d" (i * p.packages / max 1 p.classes)

let class_name p i = Printf.sprintf "%s.C%d" (pkg_of p i) i

let class_qname p i = Javamodel.Qname.of_string (class_name p i)

(* With [locality = 0] referenced types are uniform over the whole set (the
   historical expander-like behavior: one giant SCC, every cone ~100%). A
   positive locality arranges the packages as a binary tree rooted at the
   hub package: a class keeps its references inside its own package with
   probability [locality] and otherwise hands out an entry point into one of
   its package's child packages — a workbench-style facade fanning out into
   subsystems, never referencing back up. A search from a hub type can reach
   the whole tree, but a target's reachability cone is only the silos on the
   root-to-target path, so reach rejection has real work to do. Any edge pointing back toward the root (or uniformly across silos, as
   the extends edges used to) would close a cycle and collapse the tree into
   one SCC with ~100% cones — which is exactly what the [locality = 0]
   expander is. *)
let per_pkg p = max 1 (p.classes / max 1 p.packages)

let pick_ref p rng i =
  if p.locality <= 0.0 then Rng.int rng p.classes
  else
    let k = per_pkg p in
    let npkg = (p.classes + k - 1) / k in
    let pkg = i / k in
    let pick_in q = min (p.classes - 1) ((q * k) + Rng.int rng k) in
    let c1 = (2 * pkg) + 1 and c2 = (2 * pkg) + 2 in
    if c1 >= npkg || Rng.bool rng p.locality then pick_in pkg
    else if c2 >= npkg then pick_in c1
    else pick_in (if Rng.bool rng 0.5 then c1 else c2)

(* Parameter types are path edges just like returns (param -> ret), so a
   parameter drawn from a child package whose method returns an own-package
   type would be an edge back toward the root; under locality parameters
   therefore always stay inside the package. *)
let pick_param p rng i =
  if p.locality <= 0.0 then Rng.int rng p.classes
  else
    let k = per_pkg p in
    min (p.classes - 1) ((i / k * k) + Rng.int rng k)

(* Widening conversions are graph edges too, so a superclass in another
   silo would leak reachability just like a reference edge; under locality
   the superclass stays inside the package (or the class stays root when it
   is its package's first). Always an earlier index, as [generate]
   requires. *)
let pick_parent p rng i =
  if p.locality <= 0.0 then Some (Rng.int rng i)
  else
    let k = per_pkg p in
    let lo = i / k * k in
    if i > lo then Some (lo + Rng.int rng (i - lo)) else None

let generate_with ~n_methods_of p =
  let rng = Rng.create ~seed:p.seed in
  let b = Builder.create () in
  for i = 0 to p.classes - 1 do
    let extends =
      if i > 0 && Rng.bool rng p.subclass_fraction then
        Option.map (class_name p) (pick_parent p rng i)
      else None
    in
    Builder.cls b ?extends (class_name p i);
    let n_methods = n_methods_of rng in
    for m = 0 to n_methods - 1 do
      let ret = class_name p (pick_ref p rng i) in
      if Rng.bool rng p.void_fraction then
        Builder.meth b ~static:true (Printf.sprintf "make%d" m) ~params:[] ~ret
      else begin
        let n_params = Rng.int rng 2 in
        let params =
          List.init n_params (fun _ ->
              if Rng.bool rng 0.3 then "int" else class_name p (pick_param p rng i))
        in
        Builder.meth b (Printf.sprintf "m%d" m) ~params ~ret
      end
    done;
    if Rng.bool rng 0.5 then Builder.ctor b ~params:[] ()
  done;
  Builder.hierarchy b

let generate p =
  generate_with p ~n_methods_of:(fun rng ->
      max 1 (p.methods_per_class / 2 + Rng.int rng (max 1 p.methods_per_class)))

(* Real APIs are heavy-tailed: most classes expose a handful of methods and
   a few god classes expose dozens. 60% draw 1-3, 30% draw 4-11, 10% draw
   12-40 — mean ~6 methods per class, which fixes the class count for a
   requested method budget. *)
let mega_methods_per_class rng =
  let u = Rng.float rng 1.0 in
  if u < 0.6 then 1 + Rng.int rng 3
  else if u < 0.9 then 4 + Rng.int rng 8
  else 12 + Rng.int rng 29

let mega_params ?(seed = 42) ~methods () =
  let classes = max 2 (methods / 6) in
  {
    classes;
    packages = max 2 (classes / 24);
    methods_per_class = 6;
    subclass_fraction = 0.3;
    void_fraction = 0.1;
    locality = 0.85;
    seed;
  }

let mega ?seed ~methods () =
  generate_with ~n_methods_of:mega_methods_per_class
    (mega_params ?seed ~methods ())
