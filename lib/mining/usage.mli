(** A stub, kept only for [perfbench/model.ml], which still builds a usage
    model and freezes under it. Results are ordered by the paper's rule
    alone ({!Prospector.Rank}); nothing in the program reads this model. *)

type t

val of_examples : Extract.example list -> t
(** Ignores its argument. *)

val edge_cost : t -> Prospector.Elem.t -> int
(** {!Prospector.Elem.cost}; the query layer ignores every cost model. *)
