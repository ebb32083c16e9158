(** What is left of package-cone sharding: a type with no values, so
    neither function can ever run. {!Query.engine_shards} always answers
    [None]; the stub goes once [perfbench/] stops calling it. *)

type t

val route : t -> target:Graph.node -> int option

val sub : t -> int -> Graph.frozen option
