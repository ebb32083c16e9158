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
   shared-prefix arena of parent-pointer ints (one row per prefix, flat
   parallel arrays), so extending a path is O(1) and allocation-free: no
   [List.rev], no cons garbage, no per-prefix jungloid. The arrays behind
   the arena, the heap and the rank lanes form one workspace ([Memo]) that
   every search takes over ([Query] reuses one per domain), so a query in
   steady state allocates none of them either.

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

(* A growable int array — the building block of both the arena and the
   heap. Plain [int array] underneath: unboxed, cache-friendly. *)
module Ivec = struct
  type t = {
    mutable buf : int array;
    mutable len : int;
  }

  let create () = { buf = Array.make 64 0; len = 0 }

  let clear v = v.len <- 0

  let push v x =
    if v.len = Array.length v.buf then begin
      let buf' = Array.make (2 * Array.length v.buf) 0 in
      Array.blit v.buf 0 buf' 0 v.len;
      v.buf <- buf'
    end;
    v.buf.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.buf.(i)
end

(* Binary min-heap over (priority, payload) int pairs in two parallel
   arrays. Pop order among equal priorities is unspecified but
   deterministic — the batch sort above it restores the exact rank order,
   so only the grouping by priority matters. *)
module Heap = struct
  type t = {
    mutable prio : int array;
    mutable payload : int array;
    mutable len : int;
  }

  let create () = { prio = Array.make 64 0; payload = Array.make 64 0; len = 0 }

  let clear h = h.len <- 0

  let length h = h.len

  let min_prio h = if h.len = 0 then max_int else h.prio.(0)

  let swap h i j =
    let p = h.prio.(i) and x = h.payload.(i) in
    h.prio.(i) <- h.prio.(j);
    h.payload.(i) <- h.payload.(j);
    h.prio.(j) <- p;
    h.payload.(j) <- x

  let add h ~prio x =
    if h.len = Array.length h.prio then begin
      let cap = 2 * h.len in
      let prio' = Array.make cap 0 and payload' = Array.make cap 0 in
      Array.blit h.prio 0 prio' 0 h.len;
      Array.blit h.payload 0 payload' 0 h.len;
      h.prio <- prio';
      h.payload <- payload'
    end;
    h.prio.(h.len) <- prio;
    h.payload.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.prio.((!i - 1) / 2) > h.prio.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    assert (h.len > 0);
    let x = h.payload.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.prio.(0) <- h.prio.(h.len);
      h.payload.(0) <- h.payload.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.len && h.prio.(l) < h.prio.(!m) then m := l;
        if r < h.len && h.prio.(r) < h.prio.(!m) then m := r;
        if !m = !i then continue := false
        else begin
          swap h !i !m;
          i := !m
        end
      done
    end;
    x
end

(* The shared-prefix arena: row [i] is a path prefix, [parents.(i)] its
   one-shorter prefix (-1 for a root), [edges.(i)] the appended edge and
   [ords.(i)] that edge's global CSR index. Only the ords of edges leaving
   one node are ever compared (two paths first differ after a shared
   prefix), and one node's row of CSR indices is contiguous and increasing
   — a row patched into the snapshot's tail slack included — so index order
   is adjacency order: the DFS-lexicographic coordinate. Reconstruction
   walks the parent chain — paths share storage with every sibling that
   branched off them. [edges] is a plain array, so appending stores a
   pointer and boxes nothing; a root row's slot is never read and may hold
   any edge, a stale one included. *)
module Arena = struct
  type t = {
    parents : Ivec.t;
    ords : Ivec.t;
    nodes : Ivec.t;
    mutable edges : Graph.edge array;
  }

  let create () =
    {
      parents = Ivec.create ();
      ords = Ivec.create ();
      nodes = Ivec.create ();
      edges = [||];
    }

  let clear a =
    Ivec.clear a.parents;
    Ivec.clear a.ords;
    Ivec.clear a.nodes

  let size a = a.parents.Ivec.len

  let add_root a node =
    let id = size a in
    Ivec.push a.parents (-1);
    Ivec.push a.ords (-1);
    Ivec.push a.nodes node;
    id

  let append a ~parent ~ord (e : Graph.edge) =
    let id = size a in
    Ivec.push a.parents parent;
    Ivec.push a.ords ord;
    Ivec.push a.nodes e.Graph.dst;
    if id >= Array.length a.edges then begin
      let cap = max (id + 1) (max 64 (2 * Array.length a.edges)) in
      let edges' = Array.make cap e in
      Array.blit a.edges 0 edges' 0 (Array.length a.edges);
      a.edges <- edges'
    end;
    a.edges.(id) <- e;
    id

  let node a id = Ivec.get a.nodes id

  let parent a id = Ivec.get a.parents id

  (* Acyclicity check: is [v] anywhere on the prefix ending at [id]? The
     chain walk replaces the DFS's [on_path] bit array — prefixes on the
     heap are not nested, so no single boolean array can describe them. *)
  let on_path a id v =
    let rec go id = id >= 0 && (node a id = v || go (parent a id)) in
    go id

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
        arr.(i) <- Ivec.get a.ords id;
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

(* The best-first workspace: every array a search writes, owned by a
   memo so that [Query] can reuse one per domain.

   Row lanes, aligned with the arena's rows (the arena's three, the edge
   array, the heap's two and the seven rank lanes below — 13 words per row
   of capacity). A taken memo empties them by resetting their lengths, so
   they stay at their high-water mark and a steady-state query allocates
   none of them: a lane past the 256-word minor-heap limit is allocated
   straight in the major heap, so regrowing the lanes per query would
   drive major GC cycles over the whole heap. The rank
   lanes hold per-prefix incremental rank state, stored already gated by
   the weights (a disabled tiebreak stays 0 everywhere), so the batch sort
   sees exactly what [Rank.key] would compute for the finished jungloid.

   Edge lanes, keyed by the global CSR edge index: the per-edge rank
   contributions (charge, package, output depth). Their contents are
   per-query — charge depends on the query's free-variable estimator and
   package ids on the query's intern table — so an entry is live only while
   its stamp equals [epoch].

   [take] bumps [epoch], which retires every edge entry and every earlier
   enumeration on this memo at once: [next] compares the epoch its
   enumeration started under and refuses to read rows a later [start] has
   recycled. *)
type memo = {
  arena : Arena.t;
  heap : Heap.t;
  r_cost : Ivec.t;  (* sum of edge costs *)
  r_charge : Ivec.t;  (* free-variable charge so far *)
  r_cross : Ivec.t;  (* package crossings so far *)
  r_lastpkg : Ivec.t;  (* interned id of the last package seen; -1 none *)
  r_spec : Ivec.t;  (* depth of the last non-widening output (or input) *)
  r_interior : Ivec.t;  (* summed depth of non-widening outputs *)
  r_budget : Ivec.t;  (* per-source cost budget, inherited from the root *)
  mutable e_charge : int array;
  mutable e_pkg : int array;  (* -1 no package; >= 0 interned id *)
  mutable e_depth : int array;  (* -1 widening; >= 0 output depth *)
  mutable e_stamp : int array;  (* entry live iff = epoch *)
  mutable epoch : int;
}

module Memo = struct
  type t = memo

  let create () =
    {
      arena = Arena.create ();
      heap = Heap.create ();
      r_cost = Ivec.create ();
      r_charge = Ivec.create ();
      r_cross = Ivec.create ();
      r_lastpkg = Ivec.create ();
      r_spec = Ivec.create ();
      r_interior = Ivec.create ();
      r_budget = Ivec.create ();
      e_charge = [||];
      e_pkg = [||];
      e_depth = [||];
      e_stamp = [||];
      epoch = 0;
    }

  let key = Domain.DLS.new_key create

  let domain () = Domain.DLS.get key

  (* Hand the workspace to a new enumeration and return its epoch.
     Regrowing the edge lanes leaves [epoch] alone: fresh stamps are all
     zero, never live since [epoch] >= 1 after the bump, and an epoch a
     retired enumeration holds never comes round again. *)
  let take t ~slots =
    if Array.length t.e_stamp < slots then begin
      let cap = max slots (2 * Array.length t.e_stamp) in
      t.e_charge <- Array.make cap 0;
      t.e_pkg <- Array.make cap 0;
      t.e_depth <- Array.make cap 0;
      t.e_stamp <- Array.make cap 0
    end;
    if t.epoch = max_int then begin
      Array.fill t.e_stamp 0 (Array.length t.e_stamp) 0;
      t.epoch <- 0
    end;
    t.epoch <- t.epoch + 1;
    Arena.clear t.arena;
    Heap.clear t.heap;
    Ivec.clear t.r_cost;
    Ivec.clear t.r_charge;
    Ivec.clear t.r_cross;
    Ivec.clear t.r_lastpkg;
    Ivec.clear t.r_spec;
    Ivec.clear t.r_interior;
    Ivec.clear t.r_budget;
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

(* One stamp covers all three edge lanes: the first accessor to touch an
   edge this query fills charge, package and depth together (each is a few
   loads — cheaper than three stamp disciplines). Package interning only
   ever feeds equality comparisons, so interning an id the current weights
   would not have asked for is harmless. *)
let memo_fill st ord (e : Graph.edge) =
  let m = st.ws in
  m.e_charge.(ord) <- compute_charge st e;
  m.e_pkg.(ord) <- compute_pkg st e;
  m.e_depth.(ord) <- compute_depth st e;
  m.e_stamp.(ord) <- m.epoch

(* Fill [ord]'s edge lanes on its first touch this query. [take] sized
   them to [edge_slots], which bounds every ordinal [iter_succs] reports. *)
let memoize st ord (e : Graph.edge) =
  if st.ws.e_stamp.(ord) <> st.ws.epoch then memo_fill st ord e

let edge_charge st ord e =
  memoize st ord e;
  st.ws.e_charge.(ord)

let edge_pkg st ord e =
  memoize st ord e;
  st.ws.e_pkg.(ord)

let edge_depth st ord e =
  memoize st ord e;
  st.ws.e_depth.(ord)

let add_root st node budget =
  let ws = st.ws in
  let id = Arena.add_root ws.arena node in
  Ivec.push ws.r_cost 0;
  Ivec.push ws.r_charge 0;
  Ivec.push ws.r_cross 0;
  Ivec.push ws.r_lastpkg
    (if st.weights.Rank.package_tiebreak then
       match st.node_type node with
       | Jtype.Ref q -> intern st (Qname.package_string q)
       | _ -> -1
     else -1);
  Ivec.push ws.r_spec
    (if st.weights.Rank.generality_tiebreak then
       Rank.type_depth st.hierarchy (st.node_type node)
     else 0);
  Ivec.push ws.r_interior 0;
  Ivec.push ws.r_budget budget;
  Heap.add ws.heap ~prio:(Search.Dist.get st.dist_to node) id

let append st parent ord (e : Graph.edge) =
  let ws = st.ws in
  let id = Arena.append ws.arena ~parent ~ord e in
  let cost = Ivec.get ws.r_cost parent + Elem.cost e.Graph.elem in
  let charge = Ivec.get ws.r_charge parent + edge_charge st ord e in
  Ivec.push ws.r_cost cost;
  Ivec.push ws.r_charge charge;
  (if st.weights.Rank.package_tiebreak then begin
     let pkg = edge_pkg st ord e in
     let last = Ivec.get ws.r_lastpkg parent in
     if pkg >= 0 then begin
       Ivec.push ws.r_cross
         (Ivec.get ws.r_cross parent + if last >= 0 && last <> pkg then 1 else 0);
       Ivec.push ws.r_lastpkg pkg
     end
     else begin
       Ivec.push ws.r_cross (Ivec.get ws.r_cross parent);
       Ivec.push ws.r_lastpkg last
     end
   end
   else begin
     Ivec.push ws.r_cross 0;
     Ivec.push ws.r_lastpkg (-1)
   end);
  (if st.weights.Rank.generality_tiebreak then begin
     let d = edge_depth st ord e in
     if d >= 0 then begin
       Ivec.push ws.r_spec d;
       Ivec.push ws.r_interior (Ivec.get ws.r_interior parent + d)
     end
     else begin
       Ivec.push ws.r_spec (Ivec.get ws.r_spec parent);
       Ivec.push ws.r_interior (Ivec.get ws.r_interior parent)
     end
   end
   else begin
     Ivec.push ws.r_spec 0;
     Ivec.push ws.r_interior 0
   end);
  Ivec.push ws.r_budget (Ivec.get ws.r_budget parent);
  Heap.add ws.heap ~prio:(cost + charge + Search.Dist.get st.dist_to e.Graph.dst) id

(* Expansion mirrors the DFS push guard exactly: skip nodes already on the
   chain, unreachable nodes, and extensions whose optimistic total cost
   exceeds the root's budget. The budget is on *cost* alone (as in the
   DFS), not cost + charge. *)
let expand st id =
  let ws = st.ws in
  let u = Arena.node ws.arena id in
  let cost = Ivec.get ws.r_cost id in
  let budget = Ivec.get ws.r_budget id in
  st.iter_succs u (fun ord e ->
      let v = e.Graph.dst in
      let dv = Search.Dist.get st.dist_to v in
      if
        dv < max_int
        && cost + Elem.cost e.Graph.elem + dv <= budget
        && not (Arena.on_path ws.arena id v)
      then append st id ord e)

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
  let ws = st.ws in
  let arr = Array.of_list (List.rev st.pending) in
  st.pending <- [];
  Array.sort
    (fun a b ->
      match compare (Ivec.get ws.r_cross a) (Ivec.get ws.r_cross b) with
      | 0 -> (
          match compare (Ivec.get ws.r_spec a) (Ivec.get ws.r_spec b) with
          | 0 -> compare (Ivec.get ws.r_interior a) (Ivec.get ws.r_interior b)
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
      && Ivec.get ws.r_cross arr.(!i) = Ivec.get ws.r_cross arr.(!j)
      && Ivec.get ws.r_spec arr.(!i) = Ivec.get ws.r_spec arr.(!j)
      && Ivec.get ws.r_interior arr.(!i) = Ivec.get ws.r_interior arr.(!j)
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
    let key =
      {
        Rank.length = Ivec.get ws.r_cost id + Ivec.get ws.r_charge id;
        crossings = Ivec.get ws.r_cross id;
        specificity = Ivec.get ws.r_spec id;
        interior = Ivec.get ws.r_interior id;
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

(* The driver: make [emit] non-empty or prove the search exhausted. Work
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
            let id = Heap.pop st.ws.heap in
            let u = Arena.node st.ws.arena id in
            if u = st.target && Arena.parent st.ws.arena id >= 0 then begin
              (* A completed (or dead: pure-widening, cost-0) path. Like
                 the DFS, never extend a non-empty path at the target —
                 every continuation would have to revisit it. *)
              if Ivec.get st.ws.r_cost id > 0 then begin
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
