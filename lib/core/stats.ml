type t = {
  nodes : int;
  real_nodes : int;
  typestate_nodes : int;
  edges : int;
  widen_edges : int;
  downcast_edges : int;
  call_edges : int;
  field_edges : int;
  approx_bytes : int;
}

let of_graph g =
  let widen = ref 0 and down = ref 0 and call = ref 0 and field = ref 0 in
  Graph.iter_edges g (fun e ->
      match e.Graph.elem with
      | Elem.Widen _ -> incr widen
      | Elem.Downcast _ -> incr down
      | Elem.Field_access _ -> incr field
      | Elem.Static_call _ | Elem.Ctor_call _ | Elem.Instance_call _ -> incr call);
  let typestates =
    List.length (List.filter (Graph.is_typestate g) (Graph.nodes g))
  in
  let nodes = Graph.node_count g and edges = Graph.edge_count g in
  {
    nodes;
    real_nodes = nodes - typestates;
    typestate_nodes = typestates;
    edges;
    widen_edges = !widen;
    downcast_edges = !down;
    call_edges = !call;
    field_edges = !field;
    (* Rough model: a node costs ~9 words (info record + table slots), an
       edge ~14 words (record + two adjacency cons cells + its elem). *)
    approx_bytes = ((nodes * 9) + (edges * 14)) * (Sys.word_size / 8);
  }

(* Identical figures computed off a CSR snapshot — the server's lock-free
   stats op reads this instead of walking the mutable graph. *)
let of_frozen (fz : Graph.frozen) =
  let widen = ref 0 and down = ref 0 and call = ref 0 and field = ref 0 in
  Graph.frozen_iter_edges fz (fun (e : Graph.edge) ->
      match e.Graph.elem with
      | Elem.Widen _ -> incr widen
      | Elem.Downcast _ -> incr down
      | Elem.Field_access _ -> incr field
      | Elem.Static_call _ | Elem.Ctor_call _ | Elem.Instance_call _ -> incr call);
  let typestates = ref 0 in
  for u = 0 to fz.Graph.f_nodes - 1 do
    if Graph.frozen_is_typestate fz u then incr typestates
  done;
  let nodes = fz.Graph.f_nodes and edges = fz.Graph.f_edges in
  {
    nodes;
    real_nodes = nodes - !typestates;
    typestate_nodes = !typestates;
    edges;
    widen_edges = !widen;
    downcast_edges = !down;
    call_edges = !call;
    field_edges = !field;
    approx_bytes = ((nodes * 9) + (edges * 14)) * (Sys.word_size / 8);
  }

let pp_cache fmt (s : Qcache.stats) =
  Format.fprintf fmt
    "cache: %d/%d entries, %d hits, %d misses (%.0f%% hit rate), %d evictions, %d \
     invalidations"
    s.Qcache.s_entries s.Qcache.s_capacity s.Qcache.s_hits s.Qcache.s_misses
    (100.0 *. Qcache.hit_rate s)
    s.Qcache.s_evictions s.Qcache.s_invalidations

let cache_to_string s = Format.asprintf "%a" pp_cache s

let pp fmt t =
  Format.fprintf fmt
    "@[<v>nodes: %d (%d real, %d typestate)@,\
     edges: %d (%d calls, %d fields, %d widen, %d downcast)@,\
     approx memory: %.1f KiB@]"
    t.nodes t.real_nodes t.typestate_nodes t.edges t.call_edges t.field_edges
    t.widen_edges t.downcast_edges
    (float_of_int t.approx_bytes /. 1024.)

let to_string t = Format.asprintf "%a" pp t
