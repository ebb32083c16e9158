(** Splicing mined examples into the signature graph to form the jungloid
    graph (Section 4.2, Figure 6).

    Each example suffix [e1 · … · ek · (U)] becomes a fresh path: the entry
    is the {e real} node of the example's input type, every intermediate
    value gets a fresh typestate node (so the downcast is reachable only
    through the example's own prefix — the paper's [Object-1]), and the
    final downcast lands back on the real node of the cast's target, where
    ordinary signature-graph synthesis continues. *)

type stats = {
  casts_in_corpus : int;
  examples_extracted : int;
  examples_after_generalization : int;
  edges_added : int;
  typestate_nodes_added : int;
}

val add_examples : Prospector.Graph.t -> Extract.example list -> int * int
(** Returns [(edges_added, typestate_nodes_added)]. *)

val enrich :
  ?max_per_cast:int ->
  ?max_len:int ->
  ?generalize:bool ->
  ?min_keep:int ->
  ?include_protected:bool ->
  ?flow_sensitive:bool ->
  ?pool:Prospector_parallel.Pool.t ->
  ?on_examples:(Extract.example list -> unit) ->
  Prospector.Graph.t ->
  Minijava.Tast.program ->
  stats
(** The whole Section 4 pipeline over a resolved corpus: build the data-flow
    indexes, extract example jungloids from every cast, optionally
    generalize (default [true]), and splice the results into [graph].
    Examples that call non-public members are dropped unless
    [include_protected] admits protected ones (default [false], matching
    the paper's public-only synthesis surface). [flow_sensitive] switches
    the slicer to per-use reaching definitions (the paper is
    flow-insensitive; the ablation measures the precision gap). [?pool]
    parallelizes the extraction stage (see {!Extract.extract}); splicing
    stays sequential, so the resulting graph is identical at any job
    count. [?on_examples] is ignored; it stays only for the caller in
    [perfbench/model.ml]. *)
