module Hierarchy = Javamodel.Hierarchy

let api_sources =
  J2se.sources @ J2se_extra.sources @ J2se_xml_sql.sources @ J2se_swing.sources @ Eclipse_core.sources @ Eclipse_ui.sources
  @ Eclipse_extra.sources @ Eclipse_gef.sources

let corpus_sources = Corpus.sources

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
        let v = f () in
        cell := Some v;
        v

let hierarchy = memo (fun () -> Japi.Loader.load_files api_sources)

let program =
  memo (fun () -> Minijava.Resolve.parse_program ~api:(hierarchy ()) corpus_sources)

(* The graph is built from API signatures only: corpus classes contribute
   mined examples, never elementary jungloids of their own. *)
let signature_graph () = Prospector.Sig_graph.build (hierarchy ())

let jungloid_graph () =
  let g = signature_graph () in
  let stats = Mining.Enrich.enrich g (program ()) in
  (g, stats)

let default_graph = memo (fun () -> fst (jungloid_graph ()))

let proto = memo (fun () -> Mining.Protomine.mine (program ()))
