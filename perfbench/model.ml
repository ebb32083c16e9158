(* In-process copies of the models the CLI serves, built the way
   `prospector serve` and `prospector batch` build them with default flags.
   The traced run and the oracle use these; the timed runs use the real
   binaries. *)

module Query = Prospector.Query
module Graph = Prospector.Graph
module Reach = Prospector.Reach
module Sig_graph = Prospector.Sig_graph
module Hierarchy = Javamodel.Hierarchy
module Service = Prospector_server.Service

type t = {
  hierarchy : Hierarchy.t;
  graph : Graph.t;
  usage : Mining.Usage.t option;
  proto : Analysis.Protocol.model option;
}

(* Corpus parse plus enrichment: splices mined examples into [graph] and
   learns the usage and protocol models, as the CLI's [load_env] does. *)
let mine ~hierarchy graph sources =
  let prog = Minijava.Resolve.parse_program ~api:hierarchy sources in
  let usage = ref None in
  ignore
    (Mining.Enrich.enrich ~include_protected:false
       ~on_examples:(fun exs -> usage := Some (Mining.Usage.of_examples exs))
       graph prog);
  (!usage, Some (Mining.Protomine.mine prog))

(* The bundled J2SE/Eclipse model plus the mined corpus: `serve` with no
   --api flag. *)
let bundled () =
  let hierarchy = Japi.Loader.load_files Apidata.Api.api_sources in
  let graph = Sig_graph.build hierarchy in
  let usage, proto = mine ~hierarchy graph Apidata.Api.corpus_sources in
  { hierarchy; graph; usage; proto }

(* A generated world handed over as [.japi] text: `serve --api` / `batch
   --api` with no corpus, so nothing is mined. *)
let of_japi files =
  let hierarchy = Japi.Loader.load_files files in
  { hierarchy; graph = Sig_graph.build hierarchy; usage = None; proto = None }

let edge_cost m = Option.map Mining.Usage.edge_cost m.usage

let protocol_check m = Option.map (fun p j -> Analysis.Protolint.violations p j) m.proto

(* `serve`'s engine: 512-entry engine caches, one job. *)
let serve_engine m =
  Query.engine ~cache_capacity:512 ?edge_cost:(edge_cost m)
    ?protocol_check:(protocol_check m) ~graph:m.graph ~hierarchy:m.hierarchy ()

(* `serve`'s cold rebuild for a reload that cannot be spliced. With default
   flags mining is on, so the reload op rebuilds through the enriched cold
   build; with no corpus to mine that is the signature graph, frozen with
   the void node interned first. *)
let rebuild m hierarchy =
  let g = Sig_graph.build hierarchy in
  ignore (Graph.void_node g);
  Graph.freeze ?wcost:(edge_cost m) g

(* `serve`'s service. Only generated worlds (no corpus) take reloads here,
   so only they get the rebuild closure. *)
let service m =
  let engine = serve_engine m in
  let rebuild = if m.proto = None then Some (rebuild m) else None in
  Service.create
    ?vet:(Option.map (fun p j -> Analysis.Protolint.vet p j) m.proto)
    ?rebuild ~engine ()

(* `batch -j N`'s engine: 256-entry caches and an N-job pool. *)
let batch_engine ~pool m =
  Query.engine ~cache_capacity:256 ~pool ?edge_cost:(edge_cost m)
    ?protocol_check:(protocol_check m) ~graph:m.graph ~hierarchy:m.hierarchy ()
