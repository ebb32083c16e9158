module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Elem = Prospector.Elem
module Jungloid = Prospector.Jungloid

(* Signature identity modulo parameter names and visibility: the verifier
   accepts a member iff some declaration carries the same call shape. *)
let same_params a b =
  List.length a = List.length b
  && List.for_all2 (fun (_, x) (_, y) -> Jtype.equal x y) a b

let same_meth (a : Member.meth) (b : Member.meth) =
  String.equal a.Member.mname b.Member.mname
  && same_params a.Member.params b.Member.params
  && Jtype.equal a.Member.ret b.Member.ret
  && Bool.equal a.Member.mstatic b.Member.mstatic

let same_field (a : Member.field) (b : Member.field) =
  String.equal a.Member.fname b.Member.fname
  && Jtype.equal a.Member.ftype b.Member.ftype
  && Bool.equal a.Member.fstatic b.Member.fstatic

(* The declaration of [q] followed by those of its strict supertypes, so an
   inherited member also counts as declared "in" q. *)
let decl_chain h q =
  match Hierarchy.find_opt h q with
  | None -> []
  | Some d ->
      d
      :: (Hierarchy.supers h q |> Qname.Set.elements
         |> List.filter_map (Hierarchy.find_opt h))

let is_interface_ref h ty =
  match ty with
  | Jtype.Ref q -> (
      match Hierarchy.find_opt h q with
      | Some d -> Decl.is_interface d
      | None -> false)
  | _ -> false

let check h (j : Jungloid.t) =
  let diags = ref [] in
  let step_subject i e = Printf.sprintf "step %d (%s)" i (Elem.describe e) in
  let report i e sev code msg =
    diags := Diagnostic.about sev ~code ~subject:(step_subject i e) msg :: !diags
  in
  let error i e = report i e Diagnostic.Error
  and warning i e = report i e Diagnostic.Warning
  and info i e = report i e Diagnostic.Info in
  (* An owner whose declaration the loader invented (or dropped) cannot
     vouch for members: downgrade to an info rather than reject chains
     mined against a trimmed model. *)
  let opaque_owner i e owner =
    match Hierarchy.find_opt h owner with
    | None ->
        info i e "J009"
          (Printf.sprintf "%s is not declared in the model; member unverifiable"
             (Qname.to_string owner));
        true
    | Some d when d.Decl.synthetic ->
        info i e "J009"
          (Printf.sprintf "%s is opaque (synthetic); member unverifiable"
             (Qname.to_string owner));
        true
    | Some _ -> false
  in
  let check_visibility i e =
    match Elem.visibility e with
    | Some Member.Public | None -> ()
    | Some vis ->
        let name =
          match vis with
          | Member.Public -> "public"
          | Member.Protected -> "protected"
          | Member.Private -> "private"
          | Member.Package -> "package-private"
        in
        warning i e "J006" (Printf.sprintf "references a %s member" name)
  in
  let check_member i (e : Elem.t) =
    match e with
    | Elem.Field_access { owner; field } ->
        if not (opaque_owner i e owner) then
          if
            not
              (List.exists
                 (fun d -> List.exists (same_field field) d.Decl.fields)
                 (decl_chain h owner))
          then
            error i e "J002"
              (Printf.sprintf "no field '%s : %s' in %s" field.Member.fname
                 (Jtype.to_string field.Member.ftype)
                 (Qname.to_string owner))
    | Elem.Static_call { owner; meth; _ } | Elem.Instance_call { owner; meth; _ } ->
        if not (opaque_owner i e owner) then
          if
            not
              (List.exists
                 (fun d -> List.exists (same_meth meth) d.Decl.methods)
                 (decl_chain h owner))
          then
            error i e "J002"
              (Printf.sprintf "no method '%s' in %s"
                 (Member.meth_signature_string meth)
                 (Qname.to_string owner))
    | Elem.Ctor_call { owner; ctor; _ } -> (
        match Hierarchy.find_opt h owner with
        | None | Some { Decl.synthetic = true; _ } -> ignore (opaque_owner i e owner)
        | Some d ->
            let declared =
              List.exists
                (fun (c : Member.ctor) -> same_params ctor.Member.cparams c.Member.cparams)
                d.Decl.ctors
            in
            (* A class that declares no constructor has the implicit
               nullary default constructor. *)
            let default_ok =
              d.Decl.ctors = [] && ctor.Member.cparams = []
              && not (Decl.is_interface d)
            in
            if not (declared || default_ok) then
              error i e "J002"
                (Printf.sprintf "no constructor of %s with %d parameters"
                   (Qname.to_string owner)
                   (List.length ctor.Member.cparams));
            if Decl.is_interface d then
              error i e "J008"
                (Printf.sprintf "%s is an interface and cannot be constructed"
                   (Qname.to_string owner))
            else if d.Decl.abstract then
              warning i e "J008"
                (Printf.sprintf "%s is abstract; the constructor call cannot appear as-is"
                   (Qname.to_string owner)))
    | Elem.Widen _ | Elem.Downcast _ -> ()
  in
  let check_slot i (e : Elem.t) =
    let arity_ok params = function
      | Elem.Param k -> k >= 0 && k < List.length params
      | Elem.Receiver | Elem.No_input -> true
    in
    match e with
    | Elem.Static_call { meth; input; _ } ->
        if input = Elem.Receiver then
          error i e "J005" "a static call has no receiver input"
        else if not (arity_ok meth.Member.params input) then
          error i e "J005" "parameter input slot out of range"
    | Elem.Ctor_call { ctor; input; _ } ->
        if input = Elem.Receiver then
          error i e "J005" "a constructor call has no receiver input"
        else if not (arity_ok ctor.Member.cparams input) then
          error i e "J005" "parameter input slot out of range"
    | Elem.Instance_call { meth; input; _ } ->
        if input = Elem.No_input then
          error i e "J005" "an instance call needs a receiver or parameter input"
        else if not (arity_ok meth.Member.params input) then
          error i e "J005" "parameter input slot out of range"
    | Elem.Field_access _ | Elem.Widen _ | Elem.Downcast _ -> ()
  in
  let check_conversion i (e : Elem.t) =
    match e with
    | Elem.Widen { from_; to_ } ->
        if Jtype.equal from_ to_ then
          warning i e "J007" "widening conversion between equal types is a no-op"
        else if not (Hierarchy.is_subtype h from_ to_) then
          error i e "J003"
            (Printf.sprintf "%s does not widen to %s" (Jtype.to_string from_)
               (Jtype.to_string to_))
    | Elem.Downcast { from_; to_ } ->
        if Jtype.equal from_ to_ then
          warning i e "J007" "downcast to the same type is a no-op"
        else if
          not
            (Hierarchy.is_subtype h to_ from_
            || is_interface_ref h from_ || is_interface_ref h to_)
        then
          error i e "J004"
            (Printf.sprintf "%s is unrelated to the static type %s"
               (Jtype.to_string to_) (Jtype.to_string from_))
    | _ -> ()
  in
  (* [Elem.input_type] indexes the parameter list, so it can only be asked
     after the slot check passed. *)
  let input_ty_opt e = try Some (Elem.input_type e) with _ -> None in
  let rec steps i prev = function
    | [] -> ()
    | e :: rest ->
        check_slot i e;
        (match input_ty_opt e with
        | Some it ->
            if not (Jtype.equal prev it) then
              error i e "J001"
                (Printf.sprintf "expects input %s but the previous step produces %s"
                   (Jtype.to_string it) (Jtype.to_string prev))
        | None -> ());
        check_member i e;
        check_conversion i e;
        check_visibility i e;
        steps (i + 1) (Elem.output_type e) rest
  in
  steps 0 (Jungloid.input_type j) j.Jungloid.elems;
  List.sort Diagnostic.compare !diags

let sound h j = Diagnostic.errors (check h j) = []

let findings ?(vet = fun _ -> []) h j = check h j @ Gencheck.check h j @ vet j
