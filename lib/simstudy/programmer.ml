module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Query = Prospector.Query
module Assist = Prospector.Assist
module Rng = Corpusgen.Rng

type constants = {
  minutes_per_member_scanned : float;
  doc_search_minutes : float;
  doc_success_probability : float;
  understand_fraction : float;
  inspect_minutes : float;
  invoke_minutes : float;
  integrate_minutes : float;
  max_doc_attempts : int;
  reimplement_minutes : float;
  reimplement_bug_probability : float;
  detour_probability_per_member : float;
  detour_minutes : float;
}

let default_constants =
  {
    minutes_per_member_scanned = 0.15;
    doc_search_minutes = 4.0;
    doc_success_probability = 0.45;
    understand_fraction = 0.25;
    inspect_minutes = 0.6;
    invoke_minutes = 0.5;
    integrate_minutes = 2.5;
    max_doc_attempts = 3;
    reimplement_minutes = 14.0;
    reimplement_bug_probability = 0.3;
    detour_probability_per_member = 0.03;
    detour_minutes = 4.0;
  }

type outcome = Correct_reuse | Correct_reimplemented | Incorrect

type attempt = {
  minutes : float;
  outcome : outcome;
}

let parse_ty = Jtype.ref_of_string

(* Shared problem-understanding cost, paid by both arms. *)
let understand c (p : Apidata.Study.t) =
  c.understand_fraction *. p.Apidata.Study.base_minutes

(* A hidden link is an elementary jungloid that member browsing on the
   value in hand cannot reveal: static calls and constructors live on
   another class, and an instance call whose input is a parameter needs a
   receiver the programmer does not have yet (the paper's JavaCore
   observation in Section 1). *)
let is_hidden_link = function
  | Elem.Static_call _ | Elem.Ctor_call _ -> true
  | Elem.Instance_call { input = Elem.Param _; _ } -> true
  | Elem.Instance_call _ | Elem.Field_access _ | Elem.Widen _ | Elem.Downcast _ ->
      false

(* A snapshot row holds exactly the builder node's successors. *)
let out_degree (fz : Graph.frozen) ty =
  match Graph.frozen_find_type_node fz ty with
  | Some n -> fz.Graph.f_fwd_end.{n} - fz.Graph.f_fwd_off.{n}
  | None -> 10

(* Expected unaided browsing cost of a route — used to pick the route a
   no-tool programmer gravitates to (they find what is browsable). *)
let expected_browse_cost c frozen (j : Prospector.Jungloid.t) =
  let cur = ref (Prospector.Jungloid.input_type j) in
  List.fold_left
    (fun acc e ->
      let deg = float_of_int (out_degree frozen !cur) in
      let scan = deg *. c.minutes_per_member_scanned in
      let detour = deg *. c.detour_probability_per_member *. c.detour_minutes in
      let hunt =
        if is_hidden_link e then c.doc_search_minutes /. c.doc_success_probability
        else 0.0
      in
      cur := Elem.output_type e;
      acc +. scan +. detour +. hunt)
    0.0 j.Prospector.Jungloid.elems

(* The routes an unaided programmer might converge on: the engine's
   suggestions for the problem's baseline framing. *)
let baseline_routes ~frozen ~hierarchy (p : Apidata.Study.t) =
  let tout =
    Option.value ~default:p.Apidata.Study.tout p.Apidata.Study.baseline_tout
  in
  let ctx =
    {
      Assist.vars = List.map (fun (n, ty) -> (n, parse_ty ty)) p.Apidata.Study.vars;
      expected = parse_ty tout;
    }
  in
  List.map (fun s -> s.Assist.result.Query.jungloid) (Assist.suggest ~frozen ~hierarchy ctx)

let reimplement c ~rng ~skill base =
  let bug = Rng.bool rng c.reimplement_bug_probability in
  {
    minutes = skill *. (base +. c.reimplement_minutes +. Rng.float rng 6.0);
    outcome = (if bug then Incorrect else Correct_reimplemented);
  }

let solve_baseline c ~rng ~skill ~frozen ~hierarchy (p : Apidata.Study.t) =
  let base = understand c p in
  match baseline_routes ~frozen ~hierarchy p with
  | [] -> reimplement c ~rng ~skill base
  | routes ->
      (* Gravitate to the most browsable route. *)
      let route =
        List.fold_left
          (fun best j ->
            if expected_browse_cost c frozen j < expected_browse_cost c frozen best then j
            else best)
          (List.hd routes) (List.tl routes)
      in
      let minutes = ref (base +. Rng.float rng 2.0) in
      let gave_up = ref false in
      let cur = ref (Prospector.Jungloid.input_type route) in
      List.iter
        (fun e ->
          if not !gave_up then begin
            let deg = out_degree frozen !cur in
            minutes :=
              !minutes +. (float_of_int deg *. c.minutes_per_member_scanned);
            (* wrong turns while scanning a wide class *)
            for _ = 1 to deg do
              if Rng.bool rng c.detour_probability_per_member then
                minutes := !minutes +. (c.detour_minutes *. (0.5 +. Rng.float rng 1.0))
            done;
            if is_hidden_link e then begin
              let found = ref false in
              let attempts = ref 0 in
              while (not !found) && not !gave_up do
                minutes := !minutes +. c.doc_search_minutes;
                incr attempts;
                if Rng.bool rng c.doc_success_probability then found := true
                else if !attempts >= c.max_doc_attempts then gave_up := true
              done
            end;
            cur := Elem.output_type e
          end)
        route.Prospector.Jungloid.elems;
      if !gave_up then
        let r = reimplement c ~rng ~skill 0.0 in
        { r with minutes = (skill *. !minutes) +. r.minutes }
      else
        {
          minutes = skill *. (!minutes +. c.integrate_minutes);
          outcome = Correct_reuse;
        }

let solve_with_tool c ~rng ~skill ~frozen ~hierarchy (p : Apidata.Study.t) =
  let base = understand c p in
  match Apidata.Study.tool_rank ~frozen ~hierarchy p with
  | Some rank ->
      let minutes =
        skill
        *. (base +. c.invoke_minutes
           +. (float_of_int rank *. c.inspect_minutes)
           +. c.integrate_minutes
           +. Rng.float rng 2.0)
      in
      { minutes; outcome = Correct_reuse }
  | None ->
      (* The tool has nothing: fall back to unaided behavior, having paid
         the invocation. *)
      let fallback = solve_baseline c ~rng ~skill ~frozen ~hierarchy p in
      { fallback with minutes = fallback.minutes +. (skill *. c.invoke_minutes) }

(* ---------- probe answering (refine sessions) ---------- *)

module Esession = Prospector_eval.Session
module Eprobe = Prospector_eval.Probe

let same_result (a : Query.result) (b : Query.result) =
  String.equal
    (Prospector.Jungloid.to_expression a.Query.jungloid)
    (Prospector.Jungloid.to_expression b.Query.jungloid)
  && String.equal a.Query.code b.Query.code

let answer_probe (st : Esession.t) ~(desired : Query.result) : int option =
  match Esession.question st with
  | None -> None
  | Some q ->
      let live = Array.of_list (Esession.live st) in
      let contains (g : Eprobe.group) =
        List.exists
          (fun i -> same_result live.(i).Esession.result desired)
          g.Eprobe.members
      in
      let rec find i = function
        | [] -> Some 0 (* desired is gone: shrug and follow the crowd *)
        | g :: gs -> if contains g then Some i else find (i + 1) gs
      in
      find 0 q.Eprobe.groups
