(* Reachability index: for every node, the bitset of nodes it can reach.
   Built once per snapshot, it answers "can u ever reach tout?" in O(1),
   which lets the query layer reject unsolvable (tin, tout) pairs without
   any BFS at all, and gives the shard planner the condensation. It never
   filters a search: the backward sweep from tout only enters nodes that
   reach tout, so there is nothing for a cone to remove.

   Construction runs an iterative Tarjan SCC pass on flat int stacks (the
   jungloid graph is cyclic: widening edges alone create cycles through
   shared supertypes), then a bitset DP over the condensation. Both passes
   run over the frozen CSR adjacency (flat offset/destination arrays)
   rather than the mutable graph's cons lists. Tarjan emits components
   sinks-first, so every successor component of [c] has a smaller id and
   its closure is already final when [c] is processed. Bitsets are stored
   per component, not per node, which collapses the quadratic worst case
   on the highly cyclic real graphs.

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
end

type t = {
  n : int;  (* node count at build time *)
  built_at : int;  (* graph generation at build time *)
  comp : int array;  (* node -> component id, ids in reverse topological order *)
  creach : Bits.t array;  (* component -> bitset of reachable nodes *)
  csize : int array;  (* component -> member count, for O(SCCs) cone sizing *)
}

(* Iterative Tarjan over the CSR on flat int stacks: frame [i] of the call
   stack is node [call_v.(i)] and its next edge index [call_k.(i)]; when a
   node's CSR row is exhausted its lowlink flows to the frame beneath it,
   and a root pops its whole component off [scc]. Every node enters each
   stack at most once, so [n] slots bound both and the pass allocates
   nothing per edge. Visit order follows the row order — {!Graph.succs}
   order, which freeze preserves — so component numbering is
   deterministic. *)
let compute_sccs n ~(off : Graph.int_array1) ~(fin : Graph.int_array1)
    ~(adj : Graph.int_array1) =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let scc = Array.make n 0 in
  let call_v = Array.make n 0 in
  let call_k = Array.make n 0 in
  let sp = ref 0 and cp = ref 0 in
  let ncomp = ref 0 in
  let counter = ref 0 in
  let visit v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    scc.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    call_v.(!cp) <- v;
    call_k.(!cp) <- off.{v};
    incr cp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !cp > 0 do
        let top = !cp - 1 in
        let v = call_v.(top) and k = call_k.(top) in
        if k < fin.{v} then begin
          call_k.(top) <- k + 1;
          let w = adj.{k} in
          if index.(w) < 0 then visit w
          else if on_stack.(w) && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          cp := top;
          if lowlink.(v) = index.(v) then begin
            let w = ref (-1) in
            while !w <> v do
              decr sp;
              w := scc.(!sp);
              on_stack.(!w) <- false;
              comp.(!w) <- !ncomp
            done;
            incr ncomp
          end;
          if top > 0 then begin
            let u = call_v.(top - 1) in
            if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
          end
        end
      done
    end
  done;
  (comp, !ncomp)

(* Components' members, flat: component [c]'s members are
   [mem.(start.(c)) .. mem.(start.(c + 1) - 1)], in ascending node order. *)
type members = {
  start : int array;
  mem : int array;
}

let members_of comp ncomp =
  let n = Array.length comp in
  let start = Array.make (ncomp + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) comp;
  for c = 0 to ncomp - 1 do
    start.(c + 1) <- start.(c + 1) + start.(c)
  done;
  let cursor = Array.sub start 0 ncomp in
  let mem = Array.make n 0 in
  for u = 0 to n - 1 do
    let c = comp.(u) in
    mem.(cursor.(c)) <- u;
    cursor.(c) <- cursor.(c) + 1
  done;
  { start; mem }

(* The closure of component [c] into its (all-zero) bitset [creach.(c)]:
   its members plus the union of its successor components' (already
   complete) closures. [seen] dedupes successor components — the same
   component is typically entered through many edges. Unions are
   commutative and each call writes only [creach.(c)], so every component
   of one condensation level can run concurrently. *)
let close ~(off : Graph.int_array1) ~(fin : Graph.int_array1) ~(adj : Graph.int_array1)
    ~comp ~ms creach c =
  let bits = creach.(c) in
  let seen = Hashtbl.create 16 in
  for i = ms.start.(c) to ms.start.(c + 1) - 1 do
    let u = ms.mem.(i) in
    Bits.set bits u;
    for k = off.{u} to fin.{u} - 1 do
      let cv = comp.(adj.{k}) in
      if cv <> c && not (Hashtbl.mem seen cv) then begin
        Hashtbl.add seen cv ();
        Bits.union_into ~dst:bits creach.(cv)
      end
    done
  done

let csizes ms ncomp = Array.init ncomp (fun c -> ms.start.(c + 1) - ms.start.(c))

(* Every component's closure, given the snapshot's components. *)
let close_all ?pool (fz : Graph.frozen) comp ncomp ms =
  let n = fz.Graph.f_nodes in
  let off = fz.Graph.f_fwd_off in
  let fin = fz.Graph.f_fwd_end in
  let adj = fz.Graph.f_fwd_dst in
  let creach = Array.init ncomp (fun _ -> Bits.create n) in
  (* Condensation levels: sinks at 0, otherwise one above the deepest
     successor component. Component ids are reverse topological, so an
     ascending-id sweep sees every successor's level already final. *)
  let level = Array.make ncomp 0 in
  let max_level = ref 0 in
  for c = 0 to ncomp - 1 do
    for i = ms.start.(c) to ms.start.(c + 1) - 1 do
      let u = ms.mem.(i) in
      for k = off.{u} to fin.{u} - 1 do
        let cv = comp.(adj.{k}) in
        if cv <> c && level.(cv) + 1 > level.(c) then level.(c) <- level.(cv) + 1
      done
    done;
    if level.(c) > !max_level then max_level := level.(c)
  done;
  let by_level = Array.make (!max_level + 1) [] in
  for c = ncomp - 1 downto 0 do
    by_level.(level.(c)) <- c :: by_level.(level.(c))
  done;
  let pool = Option.value pool ~default:Pool.sequential in
  Array.iter
    (fun comps ->
      let comps = Array.of_list comps in
      Pool.parallel_for pool ~n:(Array.length comps) (fun i ->
          close ~off ~fin ~adj ~comp ~ms creach comps.(i)))
    by_level;
  { n; built_at = fz.Graph.f_generation; comp; creach; csize = csizes ms ncomp }

let build_frozen ?pool (fz : Graph.frozen) =
  let comp, ncomp =
    compute_sccs fz.Graph.f_nodes ~off:fz.Graph.f_fwd_off ~fin:fz.Graph.f_fwd_end
      ~adj:fz.Graph.f_fwd_dst
  in
  close_all ?pool fz comp ncomp (members_of comp ncomp)

let build ?pool g = build_frozen ?pool (Graph.freeze g)

(* Delta-aware maintenance. A reload patches a bounded set of CSR rows; the
   index only has to recompute closures upstream of the change. Tarjan
   reruns over the new lanes (linear, and it allocates nothing per edge),
   then a single ascending sweep classifies each new component:

   - {e dirty} if any member is in [sources] (the source of an added or
     removed edge) or any successor component is dirty — component ids are
     reverse topological, so the flag propagates in one pass;
   - {e clean} otherwise, additionally verified to have exactly the old
     component's member set (a membership change without a dirty member or
     successor is impossible, as below, but the check is cheap and keeps
     the reuse unconditionally safe).

   Sources suffice. Adding or removing u -> v changes the closure only of
   nodes that reach u: a path that gains or loses the edge reaches u first,
   while v's own closure, and that of every node reaching v but not u, is
   unchanged. A node that reached u before the delta still reaches some
   source after it: the old path's prefix up to its first removed edge
   survives and ends at that edge's source. So every closure that can
   change is dirty, and every member of an SCC that a removal splits still
   reaches that removal's source.

   Clean components reuse the old closure bitset {e by reference} (closure =
   members ∪ successor closures, all equal by induction); dirty ones are
   re-closed exactly like [build_frozen] does. Past [dirty_node_threshold]
   the sweep stops paying for itself and closing every component, as
   [build_frozen] does over the components already found, is cheaper. *)
let dirty_node_threshold = 0.25

let patch ?pool ~old ~sources (fz : Graph.frozen) =
  let n = fz.Graph.f_nodes in
  if n <> old.n then build_frozen ?pool fz
  else begin
    let off = fz.Graph.f_fwd_off in
    let fin = fz.Graph.f_fwd_end in
    let adj = fz.Graph.f_fwd_dst in
    let comp, ncomp = compute_sccs n ~off ~fin ~adj in
    let ms = members_of comp ncomp in
    let dirty = Array.make ncomp false in
    let dirty_nodes = ref 0 in
    for c = 0 to ncomp - 1 do
      let lo = ms.start.(c) and hi = ms.start.(c + 1) in
      let d = ref false in
      for i = lo to hi - 1 do
        let u = ms.mem.(i) in
        if Bits.mem sources u then d := true;
        for k = off.{u} to fin.{u} - 1 do
          let cv = comp.(adj.{k}) in
          if cv <> c && dirty.(cv) then d := true
        done
      done;
      if not !d then begin
        (* clean ⇒ member-set unchanged; verify against the old index *)
        let oc = old.comp.(ms.mem.(lo)) in
        if old.csize.(oc) <> hi - lo then d := true
        else
          for i = lo to hi - 1 do
            if old.comp.(ms.mem.(i)) <> oc then d := true
          done
      end;
      if !d then begin
        dirty.(c) <- true;
        dirty_nodes := !dirty_nodes + (hi - lo)
      end
    done;
    if float_of_int !dirty_nodes > dirty_node_threshold *. float_of_int n then
      close_all ?pool fz comp ncomp ms
    else begin
      let creach = Array.make ncomp [||] in
      for c = 0 to ncomp - 1 do
        if not dirty.(c) then
          creach.(c) <- old.creach.(old.comp.(ms.mem.(ms.start.(c))))
        else begin
          creach.(c) <- Bits.create n;
          close ~off ~fin ~adj ~comp ~ms creach c
        end
      done;
      { n; built_at = fz.Graph.f_generation; comp; creach; csize = csizes ms ncomp }
    end
  end

let generation t = t.built_at

let node_count t = t.n

let scc_count t = Array.length t.creach

let components t = t.comp

(* Nodes the index has never seen (created after the build) are conservatively
   reported reachable: [mem] is a rejection oracle, and "don't reject" is the
   only safe answer for an unknown node. Engines avoid the situation entirely
   by indexing exactly the snapshot they serve. *)
let mem t ~src ~target =
  if src < 0 || src >= t.n || target < 0 || target >= t.n then true
  else Bits.mem t.creach.(t.comp.(src)) target

(* The cone of a target, flipped component-wise: instead of a per-node
   closure probe (node -> component -> bitset-of-nodes), precompute the set
   of components that reach the target as a bitset over component ids. A
   membership check then costs two array loads and a mask, and building the
   cone is O(SCCs), not O(nodes), because [csize] carries member counts. *)
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

let cone_size t ~target =
  match cone t ~target with None -> t.n | Some (_, size) -> size
