(** Graph statistics for the Section 5 performance measurements: node and
    edge counts by kind. The paper's in-memory size (24 MB for J2SE +
    Eclipse) has its analogue in [bench perf]'s exact signature-graph heap
    line, not here. *)

type t = {
  nodes : int;
  real_nodes : int;
  typestate_nodes : int;
  edges : int;
  widen_edges : int;
  downcast_edges : int;
  call_edges : int;
  field_edges : int;
}

val of_graph : Graph.t -> t
(** [of_frozen (Graph.freeze g)]. *)

val of_frozen : Graph.frozen -> t
(** The figures of a CSR snapshot, without touching the mutable graph —
    what the server's lock-free stats op uses. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val pp_cache : Format.formatter -> Qcache.stats -> unit
(** One-line rendering of the query-cache counters ({!Query.engine_stats}):
    occupancy, hits, misses, hit rate, evictions, invalidations. *)

val cache_to_string : Qcache.stats -> string
