(* Kept for [perfbench/model.ml]; see usage.mli. *)
type t = unit

let of_examples (_ : Extract.example list) = ()

let edge_cost () = Prospector.Elem.cost
