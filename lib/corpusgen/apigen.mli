(** Synthetic API generator for scaling benchmarks.

    Produces a layered, package-partitioned class hierarchy whose signature
    graph has tunable size and connectivity: each class may extend an
    earlier class, and methods reference types drawn from the whole set, so
    path enumeration has realistic fan-out. Deterministic in the seed. *)

type params = {
  classes : int;
  packages : int;
  methods_per_class : int;  (** mean; actual counts vary ±50% *)
  subclass_fraction : float;  (** probability a class extends an earlier one *)
  void_fraction : float;  (** probability a method is static with no params *)
  locality : float;
      (** [0.] (default) draws referenced types uniformly from the whole set
          — an expander whose reachability cones cover ~the entire graph.
          Positive locality arranges the packages as a binary tree rooted at
          a hub package: references stay inside the class's own package with
          this probability and otherwise fan out into a child package, never
          back up. Hub types reach the whole tree but each target's cone is
          only the root-to-target silo path — the facade-over-subsystems
          shape (narrow cones) that the {!Prospector.Reach} rejection bench
          exercises. *)
  seed : int;
}

val default_params : params
(** 200 classes, 8 packages, 5 methods per class, locality 0, seed 42. *)

val generate : params -> Javamodel.Hierarchy.t
(** The synthetic hierarchy; class [i] is [synth.pN.Ci]. *)

val class_qname : params -> int -> Javamodel.Qname.t
(** The name of the [i]-th generated class. *)

val mega_params : ?seed:int -> methods:int -> unit -> params
(** Parameters sized for a method budget: classes = methods/6 (the
    heavy-tailed per-class distribution below has mean ~6), one package per
    ~24 classes arranged as the locality-0.85 binary package tree. *)

val mega : ?seed:int -> methods:int -> unit -> Javamodel.Hierarchy.t
(** A realistically shaped world with approximately [methods] methods:
    package-tree locality (narrow reachability cones, so reach rejection has
    real work), heavy-tailed methods-per-class (60% of classes
    draw 1-3 methods, 30% draw 4-11, 10% draw 12-40), deterministic in
    [seed] (default 42). Cheap enough to regenerate at 100k/1M methods
    inside a benchmark run. *)
