module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname
module Tast = Minijava.Tast

type hole = {
  owner : Qname.t;
  meth : string;
  expected : Jtype.t;
  vars : (string * Jtype.t) list;
}

let is_hole_init = function
  | Some { Tast.tdesc = Tast.Thole; _ } -> true
  | Some _ | None -> false

(* Walk a body in statement order, tracking the environment; [env] is kept
   in reverse declaration order and flipped when a hole is recorded. *)
let rec scan_stmts ~record ~owner ~meth env stmts =
  List.fold_left
    (fun env stmt ->
      match stmt with
      | Tast.Tlocal (name, ty, init) ->
          if is_hole_init init then
            record { owner; meth; expected = ty; vars = List.rev env };
          (name, ty) :: env
      | Tast.Tassign (name, { Tast.tdesc = Tast.Thole; _ }) ->
          (match List.assoc_opt name env with
          | Some ty -> record { owner; meth; expected = ty; vars = List.rev env }
          | None -> ());
          env
      | Tast.Tfield_assign (_, f, { Tast.tdesc = Tast.Thole; _ }) ->
          record { owner; meth; expected = f.Javamodel.Member.ftype; vars = List.rev env };
          env
      | Tast.Tassign _ | Tast.Tfield_assign _ | Tast.Texpr _ | Tast.Treturn _ -> env
      | Tast.Tif (_, a, b) ->
          (* branch-local declarations stay branch-local *)
          ignore (scan_stmts ~record ~owner ~meth env a);
          ignore (scan_stmts ~record ~owner ~meth env b);
          env
      | Tast.Twhile (_, body) ->
          ignore (scan_stmts ~record ~owner ~meth env body);
          env)
    env stmts

let holes (prog : Tast.program) =
  let acc = ref [] in
  let record h = acc := h :: !acc in
  List.iter
    (fun (m : Tast.tmeth) ->
      let initial =
        let params = List.rev m.Tast.params in
        if m.Tast.static then params
        else params @ [ ("this", Jtype.ref_ m.Tast.owner) ]
      in
      ignore
        (scan_stmts ~record ~owner:m.Tast.owner ~meth:m.Tast.name initial m.Tast.body))
    prog.Tast.methods;
  List.rev !acc

let contexts ~api sources = holes (Minijava.Resolve.parse_program ~api sources)

let to_context h = { Prospector.Assist.vars = h.vars; expected = h.expected }

(* One snapshot and one reach index serve every hole in the buffer. The
   snapshot bakes [edge_cost] whatever the ranking, so under [Mined] the
   weighted search reads the same model the rank keys apply; under [Paper]
   the query layer ignores it. *)
let suggest_all ?settings ?edge_cost ?protocol_check ~graph ~hierarchy holes =
  let frozen = Prospector.Query.freeze ?edge_cost graph in
  let reach = Prospector.Reach.build_frozen frozen in
  List.map
    (fun h ->
      ( h,
        Prospector.Assist.suggest ?settings ~frozen ~reach ?edge_cost
          ?protocol_check ~hierarchy (to_context h) ))
    holes
