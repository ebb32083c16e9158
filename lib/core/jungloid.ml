module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

type t = {
  input : Jtype.t;
  elems : Elem.t list;
}

let make ~input elems =
  if elems = [] then invalid_arg "Jungloid.make: empty";
  { input; elems }

let of_frozen_path fz (p : Search.path) =
  make
    ~input:(Graph.frozen_node_type fz p.Search.source)
    (List.map (fun e -> e.Graph.elem) p.Search.edges)

let input_type t = t.input

let output_type t =
  match List.rev t.elems with
  | last :: _ -> Elem.output_type last
  | [] -> t.input

let length t =
  List.fold_left (fun acc e -> acc + Elem.cost e) 0 t.elems

let free_vars t = List.concat_map Elem.free_vars t.elems

let contains_downcast t = List.exists Elem.is_downcast t.elems

let is_interface_ref h ty =
  match ty with
  | Jtype.Ref q -> (
      match Hierarchy.find_opt h q with
      | Some d -> Decl.is_interface d
      | None -> false)
  | _ -> false

let well_typed h t =
  let rec steps prev = function
    | [] -> true
    | e :: rest ->
        Jtype.equal prev (Elem.input_type e)
        && (match e with
           | Elem.Widen { from_; to_ } -> Hierarchy.is_subtype h from_ to_
           | Elem.Downcast { from_; to_ } ->
               Hierarchy.is_subtype h to_ from_
               || is_interface_ref h from_ || is_interface_ref h to_
           | _ -> true)
        && steps (Elem.output_type e) rest
  in
  steps t.input t.elems

let render_args params ~input ~expr =
  let arg i (name, ty) =
    match input with
    | Elem.Param j when i = j -> expr
    | _ -> (
        match ty with
        | Jtype.Prim p -> (
            match p with
            | Jtype.Boolean -> "false"
            | Jtype.Char -> "'\\0'"
            | Jtype.Float | Jtype.Double -> "0.0"
            | _ -> "0")
        | _ -> name)
  in
  "(" ^ String.concat ", " (List.mapi arg params) ^ ")"

let to_expression t =
  let start = match t.input with Jtype.Void -> "" | _ -> "x" in
  List.fold_left
    (fun expr e ->
      match e with
      | Elem.Field_access { owner; field } ->
          if field.Member.fstatic then
            Printf.sprintf "%s.%s" (Qname.simple owner) field.Member.fname
          else Printf.sprintf "%s.%s" expr field.Member.fname
      | Elem.Static_call { owner; meth; input } ->
          Printf.sprintf "%s.%s%s" (Qname.simple owner) meth.Member.mname
            (render_args meth.Member.params ~input ~expr)
      | Elem.Ctor_call { owner; ctor; input } ->
          Printf.sprintf "new %s%s" (Qname.simple owner)
            (render_args ctor.Member.cparams ~input ~expr)
      | Elem.Instance_call { meth; input; _ } -> (
          match input with
          | Elem.Receiver ->
              Printf.sprintf "%s.%s%s" expr meth.Member.mname
                (render_args meth.Member.params ~input:Elem.No_input ~expr)
          | _ ->
              Printf.sprintf "receiver.%s%s" meth.Member.mname
                (render_args meth.Member.params ~input ~expr))
      | Elem.Widen _ -> expr
      | Elem.Downcast { to_; _ } ->
          Printf.sprintf "((%s) %s)" (Jtype.simple_string to_) expr)
    start t.elems

let to_string t =
  let binder = match t.input with Jtype.Void -> "λ(). " | _ -> "λx. " in
  Printf.sprintf "%s%s : %s -> %s" binder (to_expression t)
    (Jtype.simple_string t.input)
    (Jtype.simple_string (output_type t))

let compare = Stdlib.compare

let equal a b = compare a b = 0
