(* Reachability index: for every node, the bitset of nodes it can reach.
   Built once per graph generation, it answers "can u ever reach tout?" in
   O(1), which lets the search restrict its frontier to the query's viable
   cone instead of the whole graph, and lets the query layer reject
   unsolvable (tin, tout) pairs without any BFS at all.

   Construction runs an iterative Tarjan SCC pass (the jungloid graph is
   cyclic: widening edges alone create cycles through shared supertypes),
   then a bitset DP over the condensation. Both passes run over the frozen
   CSR adjacency (flat offset/destination arrays) rather than the mutable
   graph's cons lists. Tarjan emits components sinks-first, so every
   successor component of [c] has a smaller id and its closure is already
   final when [c] is processed. Bitsets are stored per component, not per
   node, which collapses the quadratic worst case on the highly cyclic real
   graphs.

   The DP optionally fans out across a Pool: components are grouped by
   condensation level (sinks at level 0, level(c) = 1 + max over successor
   components), and all components of one level are processed in parallel —
   each writes only its own bitset and reads only lower-level closures,
   which the level barrier (each level's [parallel_for] returns only after
   every worker has finished) has already completed and published. The
   result is bit-for-bit the sequential sweep's. *)

module Pool = Prospector_parallel.Pool

module Bits = struct
  let word = Sys.int_size (* 63 on 64-bit platforms *)

  type t = int array

  let create n = Array.make ((n + word - 1) / word) 0

  let set (b : t) i = b.(i / word) <- b.(i / word) lor (1 lsl (i mod word))

  let[@inline] mem (b : t) i = b.(i / word) land (1 lsl (i mod word)) <> 0

  let union_into ~(dst : t) (src : t) =
    for k = 0 to Array.length dst - 1 do
      dst.(k) <- dst.(k) lor src.(k)
    done

  let count (b : t) =
    let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
    Array.fold_left (fun acc w -> popcount w acc) 0 b
end

type t = {
  n : int;  (* node count at build time *)
  built_at : int;  (* graph generation at build time *)
  comp : int array;  (* node -> component id, ids in reverse topological order *)
  creach : Bits.t array;  (* component -> bitset of reachable nodes *)
  csize : int array;  (* component -> member count, for O(SCCs) cone sizing *)
}

(* Iterative Tarjan over the CSR: the explicit stack holds (node, next edge
   index); when a node's CSR row is exhausted its lowlink flows to the
   parent beneath it, and a root pops its whole component. Visit order
   follows the row order — {!Graph.succs} order, which freeze preserves —
   so component numbering is deterministic. *)
let compute_sccs n ~(off : Graph.int_array1) ~(fin : Graph.int_array1)
    ~(adj : Graph.int_array1) =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let scc_stack = ref [] in
  let ncomp = ref 0 in
  let counter = ref 0 in
  let visit v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    scc_stack := v :: !scc_stack;
    on_stack.(v) <- true
  in
  let call = Stack.create () in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      Stack.push (root, off.{root}) call;
      while not (Stack.is_empty call) do
        let v, k = Stack.pop call in
        if k < fin.{v} then begin
          let w = adj.{k} in
          Stack.push (v, k + 1) call;
          if index.(w) < 0 then begin
            visit w;
            Stack.push (w, off.{w}) call
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let rec pop () =
              match !scc_stack with
              | w :: tail ->
                  scc_stack := tail;
                  on_stack.(w) <- false;
                  comp.(w) <- !ncomp;
                  if w <> v then pop ()
              | [] -> assert false
            in
            pop ();
            incr ncomp
          end;
          match Stack.top_opt call with
          | Some (u, _) -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
          | None -> ()
        end
      done
    end
  done;
  (comp, !ncomp)

let build_frozen ?pool (fz : Graph.frozen) =
  let n = fz.Graph.f_nodes in
  let off = fz.Graph.f_fwd_off in
  let fin = fz.Graph.f_fwd_end in
  let adj = fz.Graph.f_fwd_dst in
  let comp, ncomp = compute_sccs n ~off ~fin ~adj in
  let creach = Array.init ncomp (fun _ -> Bits.create n) in
  let members = Array.make ncomp [] in
  for u = n - 1 downto 0 do
    members.(comp.(u)) <- u :: members.(comp.(u))
  done;
  (* Condensation levels: sinks at 0, otherwise one above the deepest
     successor component. Component ids are reverse topological, so an
     ascending-id sweep sees every successor's level already final. *)
  let level = Array.make ncomp 0 in
  let max_level = ref 0 in
  for c = 0 to ncomp - 1 do
    List.iter
      (fun u ->
        for k = off.{u} to fin.{u} - 1 do
          let cv = comp.(adj.{k}) in
          if cv <> c && level.(cv) + 1 > level.(c) then level.(c) <- level.(cv) + 1
        done)
      members.(c);
    if level.(c) > !max_level then max_level := level.(c)
  done;
  let by_level = Array.make (!max_level + 1) [] in
  for c = ncomp - 1 downto 0 do
    by_level.(level.(c)) <- c :: by_level.(level.(c))
  done;
  (* The closure of one component: its members plus the union of its
     successor components' (already complete) closures. [seen] dedupes
     successor components — the same component is typically entered through
     many edges. Unions are commutative and each call writes only
     [creach.(c)], so every component of one level can run concurrently. *)
  let close c =
    let bits = creach.(c) in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun u ->
        Bits.set bits u;
        for k = off.{u} to fin.{u} - 1 do
          let cv = comp.(adj.{k}) in
          if cv <> c && not (Hashtbl.mem seen cv) then begin
            Hashtbl.add seen cv ();
            Bits.union_into ~dst:bits creach.(cv)
          end
        done)
      members.(c)
  in
  let pool = Option.value pool ~default:Pool.sequential in
  Array.iter
    (fun comps ->
      let comps = Array.of_list comps in
      Pool.parallel_for pool ~n:(Array.length comps) (fun i -> close comps.(i)))
    by_level;
  let csize = Array.make ncomp 0 in
  for u = 0 to n - 1 do
    csize.(comp.(u)) <- csize.(comp.(u)) + 1
  done;
  { n; built_at = fz.Graph.f_generation; comp; creach; csize }

let build ?pool g = build_frozen ?pool (Graph.freeze g)

(* Delta-aware maintenance. A reload patches a bounded set of CSR rows; the
   index only has to recompute closures downstream-of-change. Tarjan reruns
   over the new lanes (linear, tiny constant — it allocates nothing per
   edge), then a single ascending sweep classifies each new component:

   - {e dirty} if any member is in [touched] (an endpoint of an added or
     removed edge) or any successor component is dirty — reachability can
     only change along a path through a changed edge, and component ids are
     reverse topological, so the flag propagates in one pass;
   - {e clean} otherwise, additionally verified to have exactly the old
     component's member set (a membership change without a touched member or
     dirty successor is impossible, but the check is cheap and keeps the
     reuse unconditionally safe).

   Clean components reuse the old closure bitset {e by reference} (closure =
   members ∪ successor closures, all equal by induction); dirty ones are
   re-closed exactly like [build_frozen] does. Past [dirty_node_threshold]
   the sweep stops paying for itself and a full rebuild is cheaper. *)
let dirty_node_threshold = 0.25

let patch ?pool ~old ~touched (fz : Graph.frozen) =
  let n = fz.Graph.f_nodes in
  if n <> old.n then build_frozen ?pool fz
  else begin
    let off = fz.Graph.f_fwd_off in
    let fin = fz.Graph.f_fwd_end in
    let adj = fz.Graph.f_fwd_dst in
    let comp, ncomp = compute_sccs n ~off ~fin ~adj in
    let members = Array.make ncomp [] in
    for u = n - 1 downto 0 do
      members.(comp.(u)) <- u :: members.(comp.(u))
    done;
    let dirty = Array.make ncomp false in
    let dirty_nodes = ref 0 in
    for c = 0 to ncomp - 1 do
      let d = ref false in
      List.iter
        (fun u ->
          if Bits.mem touched u then d := true;
          for k = off.{u} to fin.{u} - 1 do
            let cv = comp.(adj.{k}) in
            if cv <> c && dirty.(cv) then d := true
          done)
        members.(c);
      if not !d then begin
        (* clean ⇒ member-set unchanged; verify against the old index *)
        match members.(c) with
        | [] -> ()
        | rep :: _ ->
            let oc = old.comp.(rep) in
            if
              old.csize.(oc) <> List.length members.(c)
              || List.exists (fun u -> old.comp.(u) <> oc) members.(c)
            then d := true
      end;
      if !d then begin
        dirty.(c) <- true;
        dirty_nodes := !dirty_nodes + List.length members.(c)
      end
    done;
    if float_of_int !dirty_nodes > dirty_node_threshold *. float_of_int n then
      build_frozen ?pool fz
    else begin
      let creach = Array.make ncomp [||] in
      for c = 0 to ncomp - 1 do
        if not dirty.(c) then
          creach.(c) <- old.creach.(old.comp.(List.hd members.(c)))
        else begin
          let bits = Bits.create n in
          let seen = Hashtbl.create 16 in
          List.iter
            (fun u ->
              Bits.set bits u;
              for k = off.{u} to fin.{u} - 1 do
                let cv = comp.(adj.{k}) in
                if cv <> c && not (Hashtbl.mem seen cv) then begin
                  Hashtbl.add seen cv ();
                  Bits.union_into ~dst:bits creach.(cv)
                end
              done)
            members.(c);
          creach.(c) <- bits
        end
      done;
      let csize = Array.make ncomp 0 in
      for u = 0 to n - 1 do
        csize.(comp.(u)) <- csize.(comp.(u)) + 1
      done;
      { n; built_at = fz.Graph.f_generation; comp; creach; csize }
    end
  end

let generation t = t.built_at

let node_count t = t.n

let scc_count t = Array.length t.creach

let components t = t.comp

(* Nodes the index has never seen (created after the build) are conservatively
   reported reachable: [mem] is a pruning oracle, and "don't prune" is the
   only safe answer for an unknown node. Engines avoid the situation entirely
   by rebuilding on generation change. *)
let mem t ~src ~target =
  if src < 0 || src >= t.n || target < 0 || target >= t.n then true
  else Bits.mem t.creach.(t.comp.(src)) target

(* The cone of a target, flipped component-wise: instead of a per-node
   closure probe (node -> component -> bitset-of-nodes), precompute the set
   of components that reach the target as a bitset over component ids. The
   search's viability check then costs two array loads and a mask — no
   closure call — and building the cone is O(SCCs), not O(nodes), because
   [csize] carries member counts. *)
type cone = {
  cone_comp : int array;  (* node -> component id (shared with the index) *)
  cone_bits : Bits.t;  (* component ids that reach the target *)
}

let cone t ~target =
  if target < 0 || target >= t.n then None
  else begin
    let ncomp = Array.length t.creach in
    let bits = Bits.create ncomp in
    let size = ref 0 in
    for c = 0 to ncomp - 1 do
      if Bits.mem t.creach.(c) target then begin
        Bits.set bits c;
        size := !size + t.csize.(c)
      end
    done;
    Some ({ cone_comp = t.comp; cone_bits = bits }, !size)
  end

let cone_viable cn =
  let comp = cn.cone_comp and bits = cn.cone_bits in
  let n = Array.length comp in
  fun u -> u < 0 || u >= n || Bits.mem bits comp.(u)

let cone_size t ~target =
  match cone t ~target with None -> t.n | Some (_, size) -> size

let reachable_count t ~src =
  if src < 0 || src >= t.n then t.n else Bits.count t.creach.(t.comp.(src))

(* ---------- persistence (see Serialize for the framed file format) ---------- *)

type dump = {
  d_version : int;
  d_n : int;
  d_built_at : int;
  d_comp : int array;
  d_creach : int array array;
}

let dump_version = 1

let dump t =
  {
    d_version = dump_version;
    d_n = t.n;
    d_built_at = t.built_at;
    d_comp = t.comp;
    d_creach = t.creach;
  }

let undump d =
  if d.d_version <> dump_version then
    invalid_arg
      (Printf.sprintf "Reach.undump: index format version %d, expected %d" d.d_version
         dump_version);
  (* [csize] is derivable, so the dump format (version 1) doesn't carry it. *)
  let ncomp = Array.length d.d_creach in
  let csize = Array.make ncomp 0 in
  Array.iter (fun c -> csize.(c) <- csize.(c) + 1) d.d_comp;
  { n = d.d_n; built_at = d.d_built_at; comp = d.d_comp; creach = d.d_creach; csize }
