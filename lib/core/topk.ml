(* Rank-aware best-first top-k path enumeration (the lazy alternative to
   [Search.Csr.enumerate_per_source] + [Rank.sort_by]).

   The exhaustive candidate source materializes every acyclic path within
   budget — up to [limit = 4096] — builds a [Jungloid.t] and a full
   [Rank.key] per path, and sorts, though the consumer stops after about
   [max_results] of them. Here the frontier of path *prefixes* lives in a
   binary min-heap ordered by an admissible priority

       f(prefix) = cost(prefix) + charge(prefix) + dist_to(head)

   where [dist_to] is the exact 0-1-BFS distance to the target and [charge]
   the free-variable charge accumulated so far. Both edge cost and charge
   are non-negative and [dist_to] is consistent (it satisfies the triangle
   inequality along every edge the search can take), so f never decreases
   along an expansion and completed paths pop with f equal to their final
   Rank length — in nondecreasing length order. Prefixes are stored in a
   shared-prefix arena of parent-pointer rows, so extending a path is O(1)
   and allocation-free: no [List.rev], no cons garbage, no per-prefix
   jungloid. The arrays behind the arena, the heap and the rank rows form
   one workspace ([Memo]) that every search takes over ([Query] reuses one
   per domain), so a query in steady state allocates none of them either.

   Paths share their tails, so the search does its per-node work once per
   query rather than once per path:
   - Successor reuse. Which successors an expansion of head [u] may take
     (reachable, and [cost(e) + dist_to(v)] within the room the budget
     leaves) depends on [u] and that room alone. The first expansion of a
     (node, room) pair this query scans [u]'s adjacency row once and
     records the passing successors, in adjacency order, as a slice of
     successor records. Later expansions of the pair walk the slice and
     test only acyclicity.
   - Lazy rows. A heap entry is (priority, parent row, successor record);
     the prefix's arena row and rank row are written only when it pops,
     and many pushed prefixes never pop. The heap receives the same
     priorities in the same order as a search that wrote each row at its
     push, so its pops, completions, tie groups and truncation at [limit]
     are that search's.
   - Flat records. Every table is one int array of fixed-width records
     (the heap's entries, the arena's links, the rank rows, the successor
     slices, the per-edge memo), so reading a record costs one or two cache
     lines, not one line per field. An arena row also carries a 62-bit
     summary of the nodes on its chain, so most acyclicity checks need no
     chain walk.

   Exactness of the tiebreaks: completed paths of one length are buffered
   until the heap minimum exceeds that length (then no more paths of that
   length can complete), sorted by the incrementally-maintained numeric
   tiebreaks (package crossings, output specificity, interior generality —
   each updated per appended edge with the same functions [Rank.key]
   applies to the finished jungloid), and only then resolved group by
   group: paths are materialized into jungloids — and rendered for the
   textual tiebreak — only for the numeric-tie groups the consumer actually
   reaches. Within a numeric-tie group the order is (text, source,
   DFS-lexicographic edge ordinals), which reproduces [Rank.sort]'s stable
   order over the DFS enumeration exactly: the DFS emits paths in
   (source asc, edge-ordinal lex) preorder, and complete paths are never
   prefixes of one another, so the lex comparison always finds a deciding
   ordinal. The net effect is byte-identical output to the exhaustive
   pipeline while touching ~k candidates instead of thousands. *)

module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Qname = Javamodel.Qname

(* A growable table of [width]-int records in one flat [int array]:
   record [i] is [buf.(width * i) .. buf.(width * i + width - 1)]. [add]
   reserves the next record and returns its index; the caller then writes
   its fields through [buf], read after the [add] (it may have grown).
   [grown] counts reallocations for [Memo.growths]. *)
module Recs = struct
  type t = {
    width : int;
    mutable buf : int array;
    mutable len : int;
    mutable grown : int;
  }

  let create width = { width; buf = Array.make (64 * width) 0; len = 0; grown = 0 }

  let clear t = t.len <- 0

  (* Out of line, so that [add] inlines to a compare and an increment. *)
  let[@inline never] grow t =
    let buf = Array.make (2 * Array.length t.buf) 0 in
    Array.blit t.buf 0 buf 0 (t.width * t.len);
    t.buf <- buf;
    t.grown <- t.grown + 1

  let[@inline] add t =
    let i = t.len in
    if t.width * (i + 1) > Array.length t.buf then grow t;
    t.len <- i + 1;
    i
end

(* Binary min-heap over (priority, payload) int pairs, entry [i] at
   [a.(2i)] and [a.(2i + 1)]. Sifting moves a hole instead of swapping
   pairs, with the comparisons of a swapping heap, so pop order among
   equal priorities is deterministic — it depends on the sequence of
   priorities pushed and popped, never on the payloads — and the batch
   sort above it restores the exact rank order, so only the grouping by
   priority matters. *)
module Heap = struct
  type t = {
    mutable a : int array;
    mutable len : int;
    mutable grown : int;
  }

  let create () = { a = Array.make 128 0; len = 0; grown = 0 }

  let clear h = h.len <- 0

  let length h = h.len

  let min_prio h = if h.len = 0 then max_int else h.a.(0)

  let[@inline never] grow h =
    let a = Array.make (2 * Array.length h.a) 0 in
    Array.blit h.a 0 a 0 (2 * h.len);
    h.a <- a;
    h.grown <- h.grown + 1

  let add h ~prio x =
    if 2 * (h.len + 1) > Array.length h.a then grow h;
    let a = h.a in
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && a.(2 * ((!i - 1) / 2)) > prio do
      let p = (!i - 1) / 2 in
      a.(2 * !i) <- a.(2 * p);
      a.((2 * !i) + 1) <- a.((2 * p) + 1);
      i := p
    done;
    a.(2 * !i) <- prio;
    a.((2 * !i) + 1) <- x

  let pop h =
    assert (h.len > 0);
    let a = h.a in
    let x = a.(1) in
    h.len <- h.len - 1;
    let n = h.len in
    if n > 0 then begin
      (* sift the last entry down from the root *)
      let prio = a.(2 * n) and y = a.((2 * n) + 1) in
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let m = ref !i and mp = ref prio in
        if l < n && a.(2 * l) < !mp then begin
          m := l;
          mp := a.(2 * l)
        end;
        if l + 1 < n && a.(2 * (l + 1)) < !mp then begin
          m := l + 1;
          mp := a.(2 * (l + 1))
        end;
        if !m = !i then continue := false
        else begin
          a.(2 * !i) <- !mp;
          a.((2 * !i) + 1) <- a.((2 * !m) + 1);
          i := !m
        end
      done;
      a.(2 * !i) <- prio;
      a.((2 * !i) + 1) <- y
    end;
    x
end

(* The shared-prefix arena: row [i] is a path prefix, with its one-shorter
   prefix (-1 for a root), its head node, the appended edge's global CSR
   index, and a summary of its chain's nodes (node [v] sets bit
   [v mod 62]), in one 4-int link record; [edges.(i)] is the appended
   edge. Only the ords of edges leaving one node are ever compared (two
   paths first differ after a shared prefix), and one node's row of CSR
   indices is contiguous and increasing — a row patched into the
   snapshot's tail slack included — so index order is adjacency order: the
   DFS-lexicographic coordinate. Reconstruction walks the parent chain —
   paths share storage with every sibling that branched off them. [edges]
   is a plain array, so appending stores a pointer and boxes nothing; a
   root row's slot is never read and may hold any edge, a stale one
   included. *)
module Arena = struct
  type t = {
    links : Recs.t;  (* parent, head node, ord, chain summary *)
    mutable edges : Graph.edge array;
    mutable edges_grown : int;
  }

  let create () = { links = Recs.create 4; edges = [||]; edges_grown = 0 }

  let clear a = Recs.clear a.links

  let size a = a.links.Recs.len

  let[@inline] bit v = 1 lsl (v mod 62)

  let add_root a node =
    let id = Recs.add a.links in
    let l = a.links.Recs.buf and b = 4 * id in
    l.(b) <- -1;
    l.(b + 1) <- node;
    l.(b + 2) <- -1;
    l.(b + 3) <- bit node;
    id

  (* Root rows write no edge, so a row id can pass the edge array's end. *)
  let[@inline never] grow_edges a id e =
    let cap = max (id + 1) (max 64 (2 * Array.length a.edges)) in
    let edges' = Array.make cap e in
    Array.blit a.edges 0 edges' 0 (Array.length a.edges);
    a.edges <- edges';
    a.edges_grown <- a.edges_grown + 1

  (* [append] with the head node already at hand, so that the search's row
     writes never dereference the edge. *)
  let push a ~parent ~ord ~node e =
    let id = Recs.add a.links in
    let l = a.links.Recs.buf and b = 4 * id in
    l.(b) <- parent;
    l.(b + 1) <- node;
    l.(b + 2) <- ord;
    l.(b + 3) <- l.((4 * parent) + 3) lor bit node;
    if id >= Array.length a.edges then grow_edges a id e;
    a.edges.(id) <- e;
    id

  let append a ~parent ~ord (e : Graph.edge) = push a ~parent ~ord ~node:e.Graph.dst e

  let node a id = a.links.Recs.buf.((4 * id) + 1)

  let parent a id = a.links.Recs.buf.(4 * id)

  (* Acyclicity check: is [v] anywhere on the prefix ending at [id]? The
     chain walk replaces the DFS's [on_path] bit array — prefixes on the
     heap are not nested, so no single boolean array can describe them —
     and runs only when the row's summary has [v]'s bit. The walk takes
     the link array as an argument, so a check allocates no closure. *)
  let rec on_chain l id v = id >= 0 && (l.((4 * id) + 1) = v || on_chain l l.(4 * id) v)

  let[@inline] on_path a id v =
    let l = a.links.Recs.buf in
    l.((4 * id) + 3) land bit v <> 0 && on_chain l id v

  let path a id =
    let rec go id acc =
      let p = parent a id in
      if p < 0 then { Search.source = node a id; edges = acc }
      else go p (a.edges.(id) :: acc)
    in
    go id []

  (* Edge ordinals from the root outward — the DFS-lexicographic
     coordinates of the path. *)
  let ords_of a id =
    let rec depth id acc = if parent a id < 0 then acc else depth (parent a id) (acc + 1) in
    let n = depth id 0 in
    let arr = Array.make n (-1) in
    let rec fill id i =
      if parent a id >= 0 then begin
        arr.(i) <- a.links.Recs.buf.((4 * id) + 2);
        fill (parent a id) (i - 1)
      end
    in
    fill id (n - 1);
    arr
end

type candidate = {
  cand_path : Search.path;
  cand_jungloid : Jungloid.t;
  cand_key : Rank.key;
}

(* Field offsets of a rank row, aligned with the arena's rows. The rank
   state is per-prefix and incremental, stored already gated by the
   weights (a disabled tiebreak stays 0 everywhere), so the batch sort
   sees exactly what [Rank.key] would compute for the finished jungloid. *)
let rank_w = 7

let k_cost = 0 (* sum of edge costs *)

let k_charge = 1 (* free-variable charge so far *)

let k_cross = 2 (* package crossings so far *)

let k_lastpkg = 3 (* interned id of the last package seen; -1 none *)

let k_spec = 4 (* depth of the last non-widening output (or input) *)

let k_interior = 5 (* summed depth of non-widening outputs *)

let k_budget = 6 (* per-source cost budget, inherited from the root *)

(* The best-first workspace: every array a search writes, owned by a
   memo so that [Query] can reuse one per domain. A taken memo empties its
   tables by resetting their lengths, so they stay at their high-water
   mark and a steady-state query allocates none of them: an array past the
   256-word minor-heap limit is allocated straight in the major heap, so
   regrowing them per query would drive major GC cycles over the whole
   heap. [growths] counts every reallocation of every table, so a caller
   can check that a workload's tables have stopped growing.

   - Rows, one per popped prefix: the arena's 4-int link record and its
     edge, and a 7-int rank row — 12 words per row of capacity.
   - The heap, 2 words per pushed prefix. A payload is
     [parent lsl slot_bits lor slot]: the prefix extends row [parent] by
     successor record [slot]. A root's payload is [lnot row] of the row
     [start] wrote.
   - Successor records (ordinal, head node, edge cost, priority increment
     [w = cost(e) + charge(e) + dist_to(head)]) and their edges, one per
     recorded successor: a push adds [w] to the parent's cost plus charge.
     A (node, room) entry (room, first record, length, next entry of the
     same node) names a slice of them. The node table holds, per node, a
     stamp and the head of its entry chain; a chain is live only while its
     stamp equals [epoch], and the table grows on demand to the largest
     node a search expands.
   - The per-edge memo, keyed by the global CSR edge index: a stamp and
     the edge's rank contributions (charge, package, output depth). Their
     contents are per-query — charge depends on the query's free-variable
     estimator and package ids on the query's intern table. A stamp of
     [epoch] means the charge is filled (a successor record needs it), and
     [-epoch] means the package and depth are too (a row write needs them,
     and only popped prefixes get rows).

   [take] bumps [epoch], which retires every edge entry, every node chain
   and every earlier enumeration on this memo at once: [next] compares the
   epoch its enumeration started under and refuses to read rows a later
   [start] has recycled. *)
type memo = {
  arena : Arena.t;
  heap : Heap.t;
  ranks : Recs.t;
  succs : Recs.t;  (* ord, head node, edge cost, priority increment *)
  mutable succ_edges : Graph.edge array;
  entries : Recs.t;  (* room, first successor, length, next entry; -1 ends *)
  mutable nodes : int array;  (* per node: stamp, first entry *)
  mutable edge_memo : int array;  (* per edge: stamp, charge, package, depth *)
  mutable epoch : int;
  mutable grown : int;  (* reallocations of the three plain arrays above *)
}

(* A payload packs a row and a successor record in 31 bits each: 62 bits,
   within a 63-bit [int]. *)
let slot_bits = 31

let slot_mask = (1 lsl slot_bits) - 1

module Memo = struct
  type t = memo

  let create () =
    {
      arena = Arena.create ();
      heap = Heap.create ();
      ranks = Recs.create rank_w;
      succs = Recs.create 4;
      succ_edges = [||];
      entries = Recs.create 4;
      nodes = [||];
      edge_memo = [||];
      epoch = 0;
      grown = 0;
    }

  let key = Domain.DLS.new_key create

  let domain () = Domain.DLS.get key

  let growths t =
    t.grown + t.heap.Heap.grown + t.arena.Arena.edges_grown + t.arena.Arena.links.Recs.grown
    + t.ranks.Recs.grown + t.succs.Recs.grown + t.entries.Recs.grown

  (* Hand the workspace to a new enumeration and return its epoch.
     Regrowing the edge memo leaves [epoch] alone: fresh stamps are all
     zero, never live since [epoch] >= 1 after the bump, and an epoch a
     retired enumeration holds never comes round again. *)
  let take t ~slots =
    if Array.length t.edge_memo < 4 * slots then begin
      t.edge_memo <- Array.make (4 * max slots (Array.length t.edge_memo / 2)) 0;
      t.grown <- t.grown + 1
    end;
    if t.epoch = max_int then begin
      Array.fill t.edge_memo 0 (Array.length t.edge_memo) 0;
      Array.fill t.nodes 0 (Array.length t.nodes) 0;
      t.epoch <- 0
    end;
    t.epoch <- t.epoch + 1;
    Arena.clear t.arena;
    Heap.clear t.heap;
    Recs.clear t.ranks;
    Recs.clear t.succs;
    Recs.clear t.entries;
    t.epoch
end

type t = {
  (* The workspace this enumeration owns while [ws.epoch = epoch]. *)
  ws : memo;
  epoch : int;
  pkg_ids : (string, int) Hashtbl.t;
  mutable pkg_next : int;
  (* Search parameters. *)
  weights : Rank.weights;
  hierarchy : Hierarchy.t;
  freevar_cost_of : (Jtype.t -> int) option;
  node_type : Graph.node -> Jtype.t;
  iter_succs : Graph.node -> (int -> Graph.edge -> unit) -> unit;
  materialize : Search.path -> Jungloid.t;
  dist_to : Search.Dist.t;
  target : Graph.node;
  limit : int;
  (* Completion staging: [pending] holds completed arena rows of length
     [pending_len] until that length is certified complete; [groups] are
     the numeric-tie groups of the certified batch awaiting lazy
     resolution; [emit] is the fully-ordered current group. *)
  mutable pending : int list;
  mutable pending_len : int;
  mutable groups : int array list;
  mutable emit : candidate list;
  mutable completed : int;
  mutable materialized_n : int;
  mutable truncated_f : bool;
  mutable stopped : bool;
}

let intern st pkg =
  match Hashtbl.find_opt st.pkg_ids pkg with
  | Some id -> id
  | None ->
      let id = st.pkg_next in
      st.pkg_next <- id + 1;
      Hashtbl.add st.pkg_ids pkg id;
      id

let compute_charge st (e : Graph.edge) =
  List.fold_left
    (fun acc (_, ty) ->
      if Jtype.is_reference ty then
        acc
        +
        match st.freevar_cost_of with
        | None -> st.weights.Rank.freevar_cost
        | Some cost_of -> cost_of ty
      else acc)
    0
    (Elem.free_vars e.Graph.elem)

let compute_pkg st (e : Graph.edge) =
  match Elem.owner_package e.Graph.elem with
  | None -> -1
  | Some p -> intern st p

let compute_depth st (e : Graph.edge) =
  if Elem.is_widen e.Graph.elem then -1
  else Rank.type_depth st.hierarchy (Elem.output_type e.Graph.elem)

(* [ord]'s free-variable charge, filled on its first touch this query.
   [take] sized the edge memo to [edge_slots], which bounds every ordinal
   [iter_succs] reports. *)
let edge_charge st ord (e : Graph.edge) =
  let m = st.ws.edge_memo and epoch = st.ws.epoch and b = 4 * ord in
  let stamp = m.(b) in
  if stamp <> epoch && stamp <> -epoch then begin
    m.(b + 1) <- compute_charge st e;
    m.(b) <- epoch
  end;
  m.(b + 1)

(* Fill [ord]'s package and output depth, once its charge is in. Package
   interning only ever feeds equality comparisons, so interning an id the
   current weights would not have asked for is harmless. *)
let edge_rank st ord (e : Graph.edge) =
  let m = st.ws.edge_memo and b = 4 * ord in
  if m.(b) <> -st.ws.epoch then begin
    m.(b + 2) <- compute_pkg st e;
    m.(b + 3) <- compute_depth st e;
    m.(b) <- -st.ws.epoch
  end

let add_root st node budget =
  let ws = st.ws in
  let id = Arena.add_root ws.arena node in
  ignore (Recs.add ws.ranks);
  let r = ws.ranks.Recs.buf and b = rank_w * id in
  r.(b + k_cost) <- 0;
  r.(b + k_charge) <- 0;
  r.(b + k_cross) <- 0;
  r.(b + k_lastpkg) <-
    (if st.weights.Rank.package_tiebreak then
       match st.node_type node with
       | Jtype.Ref q -> intern st (Qname.package_string q)
       | _ -> -1
     else -1);
  r.(b + k_spec) <-
    (if st.weights.Rank.generality_tiebreak then
       Rank.type_depth st.hierarchy (st.node_type node)
     else 0);
  r.(b + k_interior) <- 0;
  r.(b + k_budget) <- budget;
  Heap.add ws.heap ~prio:(Search.Dist.get st.dist_to node) (lnot id)

(* Write the rows of a popped prefix: row [parent] extended by successor
   record [slot]. *)
let write_row st ~parent ~slot =
  let ws = st.ws in
  let s = ws.succs.Recs.buf and sb = 4 * slot in
  let ord = s.(sb) and e = ws.succ_edges.(slot) in
  edge_rank st ord e;
  let id = Arena.push ws.arena ~parent ~ord ~node:s.(sb + 1) e in
  ignore (Recs.add ws.ranks);
  let r = ws.ranks.Recs.buf and m = ws.edge_memo in
  let b = rank_w * id and p = rank_w * parent and eb = 4 * ord in
  r.(b + k_cost) <- r.(p + k_cost) + s.(sb + 2);
  r.(b + k_charge) <- r.(p + k_charge) + m.(eb + 1);
  (if st.weights.Rank.package_tiebreak then begin
     let pkg = m.(eb + 2) in
     let last = r.(p + k_lastpkg) in
     if pkg >= 0 then begin
       r.(b + k_cross) <- (r.(p + k_cross) + if last >= 0 && last <> pkg then 1 else 0);
       r.(b + k_lastpkg) <- pkg
     end
     else begin
       r.(b + k_cross) <- r.(p + k_cross);
       r.(b + k_lastpkg) <- last
     end
   end
   else begin
     r.(b + k_cross) <- 0;
     r.(b + k_lastpkg) <- -1
   end);
  (if st.weights.Rank.generality_tiebreak then begin
     let d = m.(eb + 3) in
     if d >= 0 then begin
       r.(b + k_spec) <- d;
       r.(b + k_interior) <- r.(p + k_interior) + d
     end
     else begin
       r.(b + k_spec) <- r.(p + k_spec);
       r.(b + k_interior) <- r.(p + k_interior)
     end
   end
   else begin
     r.(b + k_spec) <- 0;
     r.(b + k_interior) <- 0
   end);
  r.(b + k_budget) <- r.(p + k_budget);
  id

let[@inline never] grow_nodes ws u =
  let n = Array.length ws.nodes in
  let nodes = Array.make (max (2 * (u + 1)) (max 128 (2 * n))) 0 in
  Array.blit ws.nodes 0 nodes 0 n;
  ws.nodes <- nodes;
  ws.grown <- ws.grown + 1

let[@inline never] grow_succ_edges ws slot e =
  let n = Array.length ws.succ_edges in
  let edges = Array.make (max (slot + 1) (max 64 (2 * n))) e in
  Array.blit ws.succ_edges 0 edges 0 n;
  ws.succ_edges <- edges;
  ws.grown <- ws.grown + 1

let rec find_room entries x room =
  if x < 0 || entries.(4 * x) = room then x else find_room entries entries.((4 * x) + 3) room

(* The (node, room) entry of [u] this query, recording it on the first
   expansion of the pair. The filter mirrors the DFS push guard minus
   acyclicity: skip unreachable heads and extensions whose optimistic total
   cost exceeds the root's budget, [cost(e) + dist_to(v) <= room] with
   [room = budget - cost(prefix)]. The budget is on *cost* alone (as in the
   DFS), not cost + charge. *)
let succ_entry st u room =
  let ws = st.ws in
  if (2 * u) + 1 >= Array.length ws.nodes then grow_nodes ws u;
  let head = if ws.nodes.(2 * u) = ws.epoch then ws.nodes.((2 * u) + 1) else -1 in
  let x = find_room ws.entries.Recs.buf head room in
  if x >= 0 then x
  else begin
    let start = ws.succs.Recs.len in
    st.iter_succs u (fun ord e ->
        let v = e.Graph.dst in
        let dv = Search.Dist.get st.dist_to v in
        let c = Elem.cost e.Graph.elem in
        if dv < max_int && c + dv <= room then begin
          let w = c + edge_charge st ord e + dv in
          let slot = Recs.add ws.succs in
          let s = ws.succs.Recs.buf and sb = 4 * slot in
          s.(sb) <- ord;
          s.(sb + 1) <- v;
          s.(sb + 2) <- c;
          s.(sb + 3) <- w;
          if slot >= Array.length ws.succ_edges then grow_succ_edges ws slot e;
          ws.succ_edges.(slot) <- e
        end);
    let x = Recs.add ws.entries in
    let en = ws.entries.Recs.buf and xb = 4 * x in
    en.(xb) <- room;
    en.(xb + 1) <- start;
    en.(xb + 2) <- ws.succs.Recs.len - start;
    en.(xb + 3) <- head;
    ws.nodes.(2 * u) <- ws.epoch;
    ws.nodes.((2 * u) + 1) <- x;
    x
  end

(* Push every recorded successor of row [id]'s head that is not already on
   its chain, in adjacency order. *)
let expand st id =
  let ws = st.ws in
  let r = ws.ranks.Recs.buf and b = rank_w * id in
  let cost = r.(b + k_cost) in
  let x = succ_entry st (Arena.node ws.arena id) (r.(b + k_budget) - cost) in
  let en = ws.entries.Recs.buf in
  let start = en.((4 * x) + 1) in
  let stop = start + en.((4 * x) + 2) in
  if id > slot_mask || stop > slot_mask + 1 then
    failwith "Topk: a search outgrew the heap payload's 31-bit row and slot fields";
  let base = cost + r.(b + k_charge) and tag = id lsl slot_bits in
  let s = ws.succs.Recs.buf in
  for slot = start to stop - 1 do
    if not (Arena.on_path ws.arena id s.((4 * slot) + 1)) then
      Heap.add ws.heap ~prio:(base + s.((4 * slot) + 3)) (tag lor slot)
  done

let cmp_ords (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Move the pending batch — every completed path of priority [pending_len],
   which at the target is its length — into numeric-tie groups by the gated
   (crossings, specificity, interior) triple. Nothing is materialized yet. *)
let flush_pending st =
  let r = st.ws.ranks.Recs.buf in
  let field k id = r.((rank_w * id) + k) in
  let arr = Array.of_list (List.rev st.pending) in
  st.pending <- [];
  Array.sort
    (fun a b ->
      match compare (field k_cross a) (field k_cross b) with
      | 0 -> (
          match compare (field k_spec a) (field k_spec b) with
          | 0 -> compare (field k_interior a) (field k_interior b)
          | c -> c)
      | c -> c)
    arr;
  let groups = ref [] in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while
      !j < n
      && field k_cross arr.(!i) = field k_cross arr.(!j)
      && field k_spec arr.(!i) = field k_spec arr.(!j)
      && field k_interior arr.(!i) = field k_interior arr.(!j)
    do
      incr j
    done;
    groups := Array.sub arr !i (!j - !i) :: !groups;
    i := !j
  done;
  st.groups <- List.rev !groups

(* Resolve one numeric-tie group: only here are paths materialized into
   jungloids (counted — this is the laziness the bench measures). A lone
   candidate is its own order; only a real tie renders text and collects
   edge ordinals for the tiebreak. *)
let resolve_group st ids =
  let ws = st.ws in
  let candidate id =
    let p = Arena.path ws.arena id in
    let j = st.materialize p in
    st.materialized_n <- st.materialized_n + 1;
    let r = ws.ranks.Recs.buf and b = rank_w * id in
    let key =
      {
        Rank.length = r.(b + k_cost) + r.(b + k_charge);
        crossings = r.(b + k_cross);
        specificity = r.(b + k_spec);
        interior = r.(b + k_interior);
        tie = j;
      }
    in
    { cand_path = p; cand_jungloid = j; cand_key = key }
  in
  if Array.length ids = 1 then [ candidate ids.(0) ]
  else begin
    let members =
      Array.map
        (fun id ->
          let c = candidate id in
          ( Jungloid.to_string c.cand_jungloid,
            c.cand_path.Search.source,
            Arena.ords_of ws.arena id,
            c ))
        ids
    in
    Array.sort
      (fun (ta, sa, oa, _) (tb, sb, ob, _) ->
        match compare (ta : string) tb with
        | 0 -> (
            match compare (sa : int) sb with 0 -> cmp_ords oa ob | c -> c)
        | c -> c)
      members;
    Array.to_list (Array.map (fun (_, _, _, c) -> c) members)
  end

(* The pull loop: make [emit] non-empty or prove the search exhausted. Work
   is strictly consumer-paced — the heap is popped only while no resolved
   candidate is waiting. *)
let rec refill st =
  match st.emit with
  | _ :: _ -> true
  | [] -> (
      match st.groups with
      | g :: rest ->
          st.groups <- rest;
          st.emit <- resolve_group st g;
          refill st
      | [] ->
          let exhausted = st.stopped || Heap.length st.ws.heap = 0 in
          if st.pending <> [] && (exhausted || Heap.min_prio st.ws.heap > st.pending_len)
          then begin
            flush_pending st;
            refill st
          end
          else if exhausted then false
          else begin
            let f = Heap.min_prio st.ws.heap in
            let p = Heap.pop st.ws.heap in
            let id =
              if p < 0 then lnot p
              else write_row st ~parent:(p lsr slot_bits) ~slot:(p land slot_mask)
            in
            if Arena.node st.ws.arena id = st.target && Arena.parent st.ws.arena id >= 0 then begin
              (* A completed (or dead: pure-widening, cost-0) path. Like
                 the DFS, never extend a non-empty path at the target —
                 every continuation would have to revisit it. *)
              if st.ws.ranks.Recs.buf.((rank_w * id) + k_cost) > 0 then begin
                if st.completed >= st.limit then begin
                  st.truncated_f <- true;
                  st.stopped <- true
                end
                else begin
                  st.completed <- st.completed + 1;
                  if st.pending = [] then st.pending_len <- f;
                  st.pending <- id :: st.pending
                end
              end
            end
            else expand st id;
            refill st
          end)

let next st =
  if st.ws.epoch <> st.epoch then
    invalid_arg "Topk.next: a later Topk.start has taken this enumeration's memo";
  if refill st then (
    match st.emit with
    | c :: rest ->
        st.emit <- rest;
        Some c
    | [] -> assert false)
  else None

let materialized st = st.materialized_n

let truncated st = st.truncated_f

let start ?freevar_cost_of ~memo:ws ~weights ~hierarchy ~node_type
    ~iter_succs ~edge_slots ~materialize ~dist_to ~sources ~target ~limit () =
  let epoch = Memo.take ws ~slots:edge_slots in
  let st =
    {
      ws;
      epoch;
      pkg_ids = Hashtbl.create 64;
      pkg_next = 0;
      weights;
      hierarchy;
      freevar_cost_of;
      node_type;
      iter_succs;
      materialize;
      dist_to;
      target;
      limit;
      pending = [];
      pending_len = 0;
      groups = [];
      emit = [];
      completed = 0;
      materialized_n = 0;
      truncated_f = false;
      stopped = false;
    }
  in
  List.iter
    (fun (node, budget) ->
      if Search.Dist.get dist_to node < max_int then add_root st node budget)
    (List.sort_uniq compare sources);
  st
