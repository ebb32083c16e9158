(** Named workloads shared by the bench harness and tests. *)

val scaling_api : classes:int -> Javamodel.Hierarchy.t
(** A synthetic API of the given size (fixed seed). *)

val layered_api : classes:int -> Javamodel.Hierarchy.t
(** Like {!scaling_api} but stratified: 32 packages, locality 0.9, so type
    references mostly stay inside a package or point at lower layers.
    Reachability cones are narrow, so most (tin, tout) pairs are unsolvable
    and {!Prospector.Reach} rejects them. *)

val mega_api : methods:int -> Javamodel.Hierarchy.t
(** {!Apigen.mega} at the default seed: ~[methods] methods with heavy-tailed
    class sizes and package-tree locality — the scale-bench world. *)

val branchy_corpus :
  branches:int -> Javamodel.Hierarchy.t * (string * string) list
(** A corpus whose single cast has [branches] alternative producers — the
    Section 4.2 extraction-blowup scenario that motivates the per-cast
    cap. *)

val random_queries :
  Javamodel.Hierarchy.t -> Prospector.Graph.t -> count:int -> seed:int ->
  Prospector.Query.t list
(** Solvable queries sampled from a graph: pairs [(tin, tout)] with at least
    one path, for latency distribution measurements. *)

val random_misses :
  Prospector.Graph.t -> count:int -> seed:int -> Prospector.Query.t list
(** The complement of {!random_queries}: pairs with {e no} path — what a
    user exploring an unfamiliar API asks all the time. Without an index
    each costs a full search that finds nothing; {!Prospector.Reach} rejects
    them in O(1). *)
