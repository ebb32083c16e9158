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

(* The unfilled slot of a rendered call: a default literal for a
   primitive, the declared name otherwise. *)
let slot_text (name, ty) =
  match ty with
  | Jtype.Prim Jtype.Boolean -> "false"
  | Jtype.Prim Jtype.Char -> "'\\0'"
  | Jtype.Prim (Jtype.Float | Jtype.Double) -> "0.0"
  | Jtype.Prim _ -> "0"
  | _ -> name

(* One pass from the output end inward, so each elem is written once: a
   Param-slot call or a downcast wraps the inner expression, a receiver
   call or an instance field appends to it, and a static field or a call
   without the input drops it. [go] takes the elems still to write,
   nearest the output first. *)
let add_expression b t =
  let rec go = function
    | [] -> ( match t.input with Jtype.Void -> () | _ -> Buffer.add_char b 'x')
    | e :: inner -> (
        match e with
        | Elem.Widen _ -> go inner
        | Elem.Downcast { to_; _ } ->
            Buffer.add_string b "((";
            Buffer.add_string b (Jtype.simple_string to_);
            Buffer.add_string b ") ";
            go inner;
            Buffer.add_char b ')'
        | Elem.Field_access { owner; field } ->
            if field.Member.fstatic then Buffer.add_string b (Qname.simple owner)
            else go inner;
            Buffer.add_char b '.';
            Buffer.add_string b field.Member.fname
        | Elem.Static_call { owner; meth; input } ->
            Buffer.add_string b (Qname.simple owner);
            call meth.Member.mname meth.Member.params input inner
        | Elem.Ctor_call { owner; ctor; input } ->
            Buffer.add_string b "new ";
            Buffer.add_string b (Qname.simple owner);
            Buffer.add_char b '(';
            args 0 ctor.Member.cparams input inner
        | Elem.Instance_call { meth; input = Elem.Receiver; _ } ->
            go inner;
            call meth.Member.mname meth.Member.params Elem.No_input inner
        | Elem.Instance_call { meth; input; _ } ->
            Buffer.add_string b "receiver";
            call meth.Member.mname meth.Member.params input inner)
  and call name params input inner =
    Buffer.add_char b '.';
    Buffer.add_string b name;
    Buffer.add_char b '(';
    args 0 params input inner
  and args i params input inner =
    match params with
    | [] -> Buffer.add_char b ')'
    | p :: rest ->
        if i > 0 then Buffer.add_string b ", ";
        (match input with
        | Elem.Param k when i = k -> go inner
        | _ -> Buffer.add_string b (slot_text p));
        args (i + 1) rest input inner
  in
  go (List.rev t.elems)

let to_expression t =
  let b = Buffer.create 64 in
  add_expression b t;
  Buffer.contents b

let to_string t =
  let b = Buffer.create 96 in
  Buffer.add_string b (match t.input with Jtype.Void -> "λ(). " | _ -> "λx. ");
  add_expression b t;
  Buffer.add_string b " : ";
  Buffer.add_string b (Jtype.simple_string t.input);
  Buffer.add_string b " -> ";
  Buffer.add_string b (Jtype.simple_string (output_type t));
  Buffer.contents b

let compare = Stdlib.compare

let equal a b = compare a b = 0
