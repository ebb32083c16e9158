module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Elem = Prospector.Elem
module Query = Prospector.Query

type params = {
  producers : int;
  coverage : float;
  routes : int;
  reuse_variable : bool;
      (* write all covered examples into one method that reuses a single
         Object variable across reassignments — viable per flow-sensitive
         reading, conflated by the paper's flow-insensitive slicer *)
  seed : int;
}

let default_params =
  { producers = 20; coverage = 1.0; routes = 3; reuse_variable = false; seed = 7 }

type t = {
  hierarchy : Javamodel.Hierarchy.t;
  corpus : (string * string) list;
  covered : bool array;
  params : params;
}

let registry = "truth.Registry"

let model i = Printf.sprintf "truth.Model%d" i

let api_text p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package truth;\n\nclass Registry {\n";
  for i = 0 to p.producers - 1 do
    Buffer.add_string buf (Printf.sprintf "  Object lookup%d();\n" i)
  done;
  Buffer.add_string buf "}\n\nclass Factory {\n";
  for r = 0 to p.routes - 1 do
    Buffer.add_string buf (Printf.sprintf "  static truth.Registry route%d();\n" r)
  done;
  Buffer.add_string buf "}\n\n";
  for i = 0 to p.producers - 1 do
    Buffer.add_string buf (Printf.sprintf "class Model%d { }\n" i)
  done;
  Buffer.contents buf

(* Pairwise reuse: each method performs two lookups through ONE variable.
   Both casts are viable in the source; the flow-insensitive slice wires
   each cast to both reassignments. *)
let reuse_corpus_text p covered =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package corpusg;\n";
  Array.iteri
    (fun i is_covered ->
      if is_covered then begin
        let j = (i + 1) mod p.producers in
        let route = i mod p.routes in
        Buffer.add_string buf
          (Printf.sprintf
             {|
class Use%d {
  void run() {
    Registry reg = Factory.route%d();
    Object o = reg.lookup%d();
    Model%d mi = (Model%d) o;
    o = reg.lookup%d();
    Model%d mj = (Model%d) o;
  }
}
|}
             i route i i i j j j)
      end)
    covered;
  Buffer.contents buf

let corpus_text p covered =
  if p.reuse_variable then reuse_corpus_text p covered
  else begin
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package corpusg;\n";
  Array.iteri
    (fun i is_covered ->
      if is_covered then begin
        let route = i mod p.routes in
        Buffer.add_string buf
          (Printf.sprintf
             {|
class Use%d {
  void run() {
    Registry reg = Factory.route%d();
    Object o = reg.lookup%d();
    Model%d m = (Model%d) o;
  }
}
|}
             i route i i i)
      end)
    covered;
  Buffer.contents buf
  end

let generate_with ~covered p =
  let hierarchy = Japi.Loader.load_string ~file:"truth" (api_text p) in
  { hierarchy; corpus = [ ("truth-corpus", corpus_text p covered) ]; covered; params = p }

let generate p =
  let rng = Rng.create ~seed:p.seed in
  let covered = Array.init p.producers (fun _ -> Rng.bool rng p.coverage) in
  generate_with ~covered p

type score = {
  completeness : float;
  precision : float;
  synthesized : int;
  viable : int;
}

(* A downcast jungloid is viable exactly when the value being cast comes
   from the producer whose ground-truth class matches the cast target. *)
let viable_downcast (j : Prospector.Jungloid.t) =
  let rec last_producer_before_cast producer = function
    | [] -> None
    | Elem.Downcast { to_; _ } :: [] -> Some (producer, to_)
    | Elem.Downcast _ :: rest -> last_producer_before_cast None rest
    | e :: rest ->
        let producer = if Elem.is_widen e then producer else Some e in
        last_producer_before_cast producer rest
  in
  match last_producer_before_cast None j.Prospector.Jungloid.elems with
  | Some (Some (Elem.Instance_call { meth; _ }), Jtype.Ref target) -> (
      let name = meth.Member.mname in
      let prefix = "lookup" in
      let plen = String.length prefix in
      if String.length name > plen && String.sub name 0 plen = prefix then
        let idx = String.sub name plen (String.length name - plen) in
        String.equal (Javamodel.Qname.simple target) ("Model" ^ idx)
      else false)
  | _ -> false

let score ?(generalize = true) ?(min_keep = 1) ?(flow_sensitive = false)
    ?(tin = registry) t =
  let p = t.params in
  let prog = Minijava.Resolve.parse_program ~api:t.hierarchy t.corpus in
  let g = Prospector.Sig_graph.build t.hierarchy in
  let _ = Mining.Enrich.enrich ~generalize ~min_keep ~flow_sensitive g prog in
  let frozen = Query.freeze g in
  let complete = ref 0 in
  let synthesized = ref 0 in
  let viable = ref 0 in
  for i = 0 to p.producers - 1 do
    let results =
      Query.run
        ~settings:
          (* Exhaustive on purpose: at slack 2 and an effectively unbounded
             result list this wants the full path set, not a certified
             prefix — the corpus-tooling case the best-first default is the
             wrong shape for. *)
          {
            Query.default_settings with
            slack = 2;
            max_results = 1000;
            strategy = Query.Exhaustive;
          }
        ~frozen ~hierarchy:t.hierarchy (Query.query tin (model i))
    in
    let correct =
      List.exists
        (fun r ->
          List.exists
            (fun e ->
              match e with
              | Elem.Instance_call { meth; _ } ->
                  String.equal meth.Member.mname (Printf.sprintf "lookup%d" i)
              | _ -> false)
            r.Query.jungloid.Prospector.Jungloid.elems
          && viable_downcast r.Query.jungloid)
        results
    in
    if correct then incr complete;
    List.iter
      (fun r ->
        if Prospector.Jungloid.contains_downcast r.Query.jungloid then begin
          incr synthesized;
          if viable_downcast r.Query.jungloid then incr viable
        end)
      results
  done;
  {
    completeness = float_of_int !complete /. float_of_int (max 1 p.producers);
    precision =
      (if !synthesized = 0 then 1.0
       else float_of_int !viable /. float_of_int !synthesized);
    synthesized = !synthesized;
    viable = !viable;
  }
