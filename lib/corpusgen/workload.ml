module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Search = Prospector.Search

let scaling_api ~classes =
  Apigen.generate { Apigen.default_params with classes; seed = 42 }

let layered_api ~classes =
  Apigen.generate
    {
      Apigen.default_params with
      classes;
      packages = 32;
      locality = 0.9;
      seed = 42;
    }

let mega_api ~methods = Apigen.mega ~methods ()

let branchy_corpus ~branches =
  let hierarchy =
    Japi.Loader.load_string ~file:"branchy"
      {|
      package b;
      class Box { Object get(); static Box make(); }
      class Special { }
      |}
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "package corpusb;\nclass C {\n  void f() {\n";
  Buffer.add_string buf "    Object o = null;\n";
  for _ = 1 to branches do
    Buffer.add_string buf "    o = Box.make().get();\n"
  done;
  Buffer.add_string buf "    Special sp = (Special) o;\n  }\n}\n";
  (hierarchy, [ ("branchy-corpus", Buffer.contents buf) ])

(* Rejection sampling of distinct real-type pairs whose solvability (a path
   exists) equals [solvable]; the probe runs on one snapshot taken up
   front. *)
let sample_pairs ~solvable graph ~count ~seed =
  let fz = Graph.freeze graph in
  let keep si di =
    Option.is_some (Search.Csr.shortest_cost fz ~sources:[ si ] ~target:di)
    = solvable
  in
  let rng = Rng.create ~seed in
  let real =
    List.filter_map
      (fun (ty, node) ->
        match ty with Jtype.Ref _ -> Some (ty, node) | _ -> None)
      (Graph.real_nodes graph)
  in
  let arr = Array.of_list real in
  let n = Array.length arr in
  let rec sample acc got tries =
    if got >= count || tries > count * 200 then List.rev acc
    else
      let ti, si = arr.(Rng.int rng n) in
      let to_, di = arr.(Rng.int rng n) in
      if si <> di && keep si di then
        sample ({ Prospector.Query.tin = ti; tout = to_ } :: acc) (got + 1)
          (tries + 1)
      else sample acc got (tries + 1)
  in
  sample [] 0 0

let random_queries hierarchy graph ~count ~seed =
  ignore hierarchy;
  sample_pairs ~solvable:true graph ~count ~seed

let random_misses graph ~count ~seed =
  sample_pairs ~solvable:false graph ~count ~seed
