module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy

type weights = {
  freevar_cost : int;
  package_tiebreak : bool;
  generality_tiebreak : bool;
}

let default_weights =
  { freevar_cost = 2; package_tiebreak = true; generality_tiebreak = true }

type key = {
  weighted : int;
  length : int;
  crossings : int;
  specificity : int;
  interior : int;
  tie : Jungloid.t;
}

let text k = Jungloid.to_string k.tie

let package_crossings (j : Jungloid.t) =
  (* The chain conceptually starts at the input object's class, so its
     package heads the sequence: a jungloid that immediately leaves the
     input's package counts a crossing (the HTMLParser example). *)
  let input_pkg =
    match j.Jungloid.input with
    | Jtype.Ref q -> [ Javamodel.Qname.package_string q ]
    | _ -> []
  in
  let pkgs = input_pkg @ List.filter_map Elem.owner_package j.Jungloid.elems in
  let rec count = function
    | a :: (b :: _ as rest) -> (if String.equal a b then 0 else 1) + count rest
    | [ _ ] | [] -> 0
  in
  count pkgs

let pre_widening_output (j : Jungloid.t) =
  let last_non_widen =
    List.fold_left
      (fun acc e -> if Elem.is_widen e then acc else Some e)
      None j.Jungloid.elems
  in
  match last_non_widen with
  | Some e -> Elem.output_type e
  | None -> j.Jungloid.input

let type_depth h ty =
  match ty with
  | Jtype.Ref q -> Hierarchy.depth h q
  | Jtype.Array _ -> 1
  | Jtype.Prim _ | Jtype.Void -> 0

let key ?(weights = default_weights) ?freevar_cost_of ?edge_cost h j =
  (* Only reference-typed free variables need a follow-up jungloid; a
     primitive slot is filled with a literal and costs nothing. The charge
     is the constant estimate (paper: 2) unless a per-type estimator is
     supplied. *)
  let ref_frees =
    List.filter (fun (_, ty) -> Jtype.is_reference ty) (Jungloid.free_vars j)
  in
  let freevar_charge =
    match freevar_cost_of with
    | None -> weights.freevar_cost * List.length ref_frees
    | Some cost_of -> List.fold_left (fun acc (_, ty) -> acc + cost_of ty) 0 ref_frees
  in
  let length = Jungloid.length j + freevar_charge in
  (* Mined mode: the weighted component is the sum of learned edge costs
     plus the free-variable charge in the same fixed-point unit. In paper
     mode ([edge_cost] absent) it is 0 for every jungloid, so the
     comparison falls through to the paper key unchanged. *)
  let weighted =
    match edge_cost with
    | None -> 0
    | Some cost ->
        List.fold_left (fun acc e -> acc + cost e) 0 j.Jungloid.elems
        + (Elem.cost_scale * freevar_charge)
  in
  let crossings = if weights.package_tiebreak then package_crossings j else 0 in
  let specificity =
    if weights.generality_tiebreak then type_depth h (pre_widening_output j) else 0
  in
  (* Applying the same more-general-is-better reasoning to intermediate
     values: a chain through plainer types is less likely to do more than
     intended. Deterministic third tiebreak before the textual one. *)
  let interior =
    if weights.generality_tiebreak then
      List.fold_left
        (fun acc e -> if Elem.is_widen e then acc else acc + type_depth h (Elem.output_type e))
        0 j.Jungloid.elems
    else 0
  in
  { weighted; length; crossings; specificity; interior; tie = j }

let compare_paper a b =
  match compare a.length b.length with
  | 0 -> (
      match compare a.crossings b.crossings with
      | 0 -> (
          match compare a.specificity b.specificity with
          | 0 -> compare a.interior b.interior
          | c -> c)
      | c -> c)
  | c -> c

let compare_numeric a b =
  match compare a.weighted b.weighted with
  | 0 -> compare_paper a b
  | c -> c

(* The textual tiebreak is rendered only when all four numeric components
   tie — on realistic workloads the overwhelmingly common case is that they
   do not, so most comparisons never pay for [Jungloid.to_string]. *)
let compare_key a b =
  match compare_numeric a b with
  | 0 -> compare (Jungloid.to_string a.tie) (Jungloid.to_string b.tie)
  | c -> c

let sort_by key_of xs =
  (* Decorate with a memoized rendering so an element compared textually
     against many numeric-equal peers is stringified once, not O(n) times. *)
  List.map
    (fun x ->
      let k = key_of x in
      (k, lazy (Jungloid.to_string k.tie), x))
    xs
  |> List.stable_sort (fun (a, ta, _) (b, tb, _) ->
         match compare_numeric a b with
         | 0 -> compare (Lazy.force ta) (Lazy.force tb)
         | c -> c)
  |> List.map (fun (_, _, x) -> x)

let sort ?weights ?freevar_cost_of ?edge_cost h js =
  sort_by (key ?weights ?freevar_cost_of ?edge_cost h) js
