module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy

type context = {
  vars : (string * Jtype.t) list;
  expected : Jtype.t;
}

type suggestion = {
  title : string;
  code : string;
  uses_var : string option;
  result : Query.result;
}

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let title_of (mr : Query.multi_result) =
  let expr = Jungloid.to_expression mr.Query.result.Query.jungloid in
  match mr.Query.source_var with
  | Some v ->
      (* Substitute the variable for the placeholder input [x]. *)
      let buf = Buffer.create (String.length expr + String.length v) in
      String.iteri
        (fun i c ->
          let is_x =
            c = 'x'
            && (i = 0 || not (is_ident_char expr.[i - 1]))
            && (i = String.length expr - 1 || not (is_ident_char expr.[i + 1]))
          in
          if is_x then Buffer.add_string buf v else Buffer.add_char buf c)
        expr;
      Buffer.contents buf
  | None -> expr

(* A variable whose type already widens to the expected type needs no
   jungloid at all: suggest it first, as ordinary completion would. *)
let direct_suggestions ~hierarchy ctx =
  List.filter_map
    (fun (name, ty) ->
      if Hierarchy.is_subtype hierarchy ty ctx.expected then
        let j =
          Jungloid.make ~input:ty [ Elem.Widen { from_ = ty; to_ = ctx.expected } ]
        in
        Some
          {
            title = name;
            code = name;
            uses_var = Some name;
            result =
              {
                Query.jungloid = j;
                key = Rank.key hierarchy j;
                code = name;
              };
          }
      else None)
    ctx.vars

let of_multi mr =
  {
    title = title_of mr;
    code = mr.Query.result.Query.code;
    uses_var = mr.Query.source_var;
    result = mr.Query.result;
  }

let suggest ?settings ~frozen ?reach ?edge_cost ?protocol_check ~hierarchy ctx =
  let multi =
    Query.run_multi ?settings ?reach ~frozen ?edge_cost ?protocol_check
      ~hierarchy ~vars:ctx.vars ~tout:ctx.expected ()
  in
  direct_suggestions ~hierarchy ctx @ List.map of_multi multi
