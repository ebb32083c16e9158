(** Assembly of the curated data set: the full API hierarchy, the resolved
    mining corpus, and ready-built graphs. Everything is memoized — the
    loaded hierarchy and built graphs are shared across callers (tests, the
    CLI, examples, and the bench harness). *)

module Hierarchy = Javamodel.Hierarchy

val api_sources : (string * string) list
(** Every [.japi] pseudo-file: J2SE + Eclipse core + Eclipse UI + GEF/debug. *)

val corpus_sources : (string * string) list

val hierarchy : unit -> Hierarchy.t
(** The loaded API hierarchy (without corpus classes). *)

val program : unit -> Minijava.Tast.program
(** The resolved mining corpus (its hierarchy extends {!hierarchy} with the
    corpus's own classes). *)

val signature_graph : unit -> Prospector.Graph.t
(** Signature graph only — no mined examples (fresh copy each call: graphs
    are mutable). *)

val jungloid_graph : unit -> Prospector.Graph.t * Mining.Enrich.stats
(** Signature graph + mined examples (the paper's full configuration).
    Fresh copy each call. *)

val default_graph : unit -> Prospector.Graph.t
(** Memoized jungloid graph for read-only use (queries, assist, benches).
    Do not mutate. *)

val proto : unit -> Analysis.Protocol.model
(** Memoized typestate model mined from the bundled corpus — what
    [lint --pass proto] and jungloid vetting check against. *)
