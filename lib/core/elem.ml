module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member

type input_slot =
  | Receiver
  | Param of int
  | No_input

type t =
  | Field_access of { owner : Qname.t; field : Member.field }
  | Static_call of { owner : Qname.t; meth : Member.meth; input : input_slot }
  | Ctor_call of { owner : Qname.t; ctor : Member.ctor; input : input_slot }
  | Instance_call of { owner : Qname.t; meth : Member.meth; input : input_slot }
  | Widen of { from_ : Jtype.t; to_ : Jtype.t }
  | Downcast of { from_ : Jtype.t; to_ : Jtype.t }

let param_type params = function
  | Param i -> snd (List.nth params i)
  | Receiver | No_input -> invalid_arg "param_type"

let input_type = function
  | Field_access { owner; field } ->
      if field.Member.fstatic then Jtype.Void else Jtype.ref_ owner
  | Static_call { meth; input; _ } -> (
      match input with
      | No_input -> Jtype.Void
      | Param _ as p -> param_type meth.Member.params p
      | Receiver -> invalid_arg "static call has no receiver")
  | Ctor_call { ctor; input; _ } -> (
      match input with
      | No_input -> Jtype.Void
      | Param _ as p -> param_type ctor.Member.cparams p
      | Receiver -> invalid_arg "constructor has no receiver")
  | Instance_call { owner; meth; input } -> (
      match input with
      | Receiver -> Jtype.ref_ owner
      | Param _ as p -> param_type meth.Member.params p
      | No_input -> invalid_arg "instance call needs an input")
  | Widen { from_; _ } -> from_
  | Downcast { from_; _ } -> from_

let output_type = function
  | Field_access { field; _ } -> field.Member.ftype
  | Static_call { meth; _ } -> meth.Member.ret
  | Ctor_call { owner; _ } -> Jtype.ref_ owner
  | Instance_call { meth; _ } -> meth.Member.ret
  | Widen { to_; _ } -> to_
  | Downcast { to_; _ } -> to_

let free_params params ~skip =
  List.filteri (fun i _ -> skip <> Some i) params
  |> List.map (fun (name, ty) -> (name, ty))

let free_vars = function
  | Field_access _ | Widen _ | Downcast _ -> []
  | Static_call { meth; input; _ } ->
      let skip = match input with Param i -> Some i | _ -> None in
      free_params meth.Member.params ~skip
  | Ctor_call { ctor; input; _ } ->
      let skip = match input with Param i -> Some i | _ -> None in
      free_params ctor.Member.cparams ~skip
  | Instance_call { owner; meth; input } -> (
      match input with
      | Receiver -> free_params meth.Member.params ~skip:None
      | Param i ->
          ("receiver", Jtype.ref_ owner) :: free_params meth.Member.params ~skip:(Some i)
      | No_input -> invalid_arg "instance call needs an input")

let cost = function Widen _ -> 0 | _ -> 1

let visibility = function
  | Field_access { field; _ } -> Some field.Member.fvis
  | Static_call { meth; _ } | Instance_call { meth; _ } -> Some meth.Member.mvis
  | Ctor_call { ctor; _ } -> Some ctor.Member.cvis
  | Widen _ | Downcast _ -> None

let is_widen = function Widen _ -> true | _ -> false

let is_downcast = function Downcast _ -> true | _ -> false

let owner_package = function
  | Field_access { owner; _ }
  | Static_call { owner; _ }
  | Ctor_call { owner; _ }
  | Instance_call { owner; _ } ->
      Some (Qname.package_string owner)
  | Widen _ | Downcast _ -> None

let args_placeholder params ~input =
  let slot i =
    match input with
    | Param j when i = j -> "·"
    | _ -> "_"
  in
  "(" ^ String.concat ", " (List.mapi (fun i _ -> slot i) params) ^ ")"

let describe = function
  | Field_access { owner; field } ->
      if field.Member.fstatic then
        Printf.sprintf "%s.%s" (Qname.simple owner) field.Member.fname
      else Printf.sprintf "·.%s" field.Member.fname
  | Static_call { owner; meth; input } ->
      Printf.sprintf "%s.%s%s" (Qname.simple owner) meth.Member.mname
        (args_placeholder meth.Member.params ~input)
  | Ctor_call { owner; ctor; input } ->
      Printf.sprintf "new %s%s" (Qname.simple owner)
        (args_placeholder ctor.Member.cparams ~input)
  | Instance_call { meth; input; _ } -> (
      match input with
      | Receiver ->
          Printf.sprintf "·.%s%s" meth.Member.mname
            (args_placeholder meth.Member.params ~input:No_input)
      | _ ->
          Printf.sprintf "_.%s%s" meth.Member.mname
            (args_placeholder meth.Member.params ~input))
  | Widen { from_; to_ } ->
      Printf.sprintf "widen %s -> %s" (Jtype.simple_string from_)
        (Jtype.simple_string to_)
  | Downcast { to_; _ } -> Printf.sprintf "(%s) ·" (Jtype.simple_string to_)

let compare = Stdlib.compare

let equal a b = compare a b = 0
