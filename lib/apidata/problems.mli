(** The 20 query-processing problems of Table 1, with the paper's reported
    rank for each and a checker recognizing the desired solution. *)

type outcome =
  | Rank of int  (** paper: desired solution at this rank *)
  | Not_found  (** paper: "No" — not in the results *)

type t = {
  id : int;  (** row number, 1-based, in Table 1 order *)
  description : string;  (** the problem as Table 1 states it *)
  source : string;  (** where the paper got it: Tester / Almanac / FAQs / Author *)
  tin : string;  (** dotted input type (["void"] allowed) *)
  tout : string;  (** dotted output type *)
  paper : outcome;
  is_desired : Prospector.Query.result -> bool;
      (** recognizes the desired solution among query results *)
}

val all : t list
(** The 20 rows, in the paper's order. *)

type measured = {
  problem : t;
  time_s : float;
  rank : int option;  (** 1-based rank of the desired solution, within the
                          result list; [None] if absent *)
  results : Prospector.Query.result list;
}

val run_one :
  ?settings:Prospector.Query.settings ->
  ?edge_cost:(Prospector.Elem.t -> int) ->
  frozen:Prospector.Graph.frozen ->
  hierarchy:Javamodel.Hierarchy.t ->
  t ->
  measured
(** One row's query, timed, on the caller's snapshot, frozen under the
    same [?edge_cost]. *)

val run_all :
  ?settings:Prospector.Query.settings ->
  ?edge_cost:(Prospector.Elem.t -> int) ->
  graph:Prospector.Graph.t ->
  hierarchy:Javamodel.Hierarchy.t ->
  unit ->
  measured list
(** Every row, in order, on one snapshot of [graph]. *)

val found : measured -> bool
(** The paper's success criterion: the desired solution appears and the user
    reads fewer than 5 snippets to reach it (rank ≤ 5). *)
