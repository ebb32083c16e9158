(* No shard plan can be built: [t] has no values. *)
type t = |

let route (t : t) ~target:_ = match t with _ -> .

let sub (t : t) _ = match t with _ -> .
