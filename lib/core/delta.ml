(* Incremental model deltas: apply add/remove/replace edits to a hierarchy
   and produce a patched frozen-CSR snapshot without a cold rebuild.

   The fast path ("spliced") handles the common live-reload shape — a class
   body changed but its name and supertypes did not. Node ids are a function
   of the hierarchy table's iteration order plus the on-the-fly interning of
   array types during member-edge emission; a Replace through
   [Hierarchy.replace] keeps the table slot, so as long as the edit neither
   references a new type (no new opaque decl, no new array node) nor changes
   the widening structure, every node id is stable and only the replaced
   class's member edges move. The patch claims the snapshot's tail token,
   writes exactly the rewritten CSR rows into the lanes' tail slack (a
   region no published reader can index), copies the O(nodes) offset/end
   lanes with those rows repointed, and shares everything else — data lanes
   and node-side arrays ([f_types], [f_origins], [f_ids]) — with the old
   snapshot by reference. No O(edges) work happens on this path; when the
   slack is exhausted (or the token was already claimed by a sibling patch)
   the lanes are compacted first and the append retried.

   Anything outside that shape — class added or removed, supertypes changed,
   new referenced types, array-mention order changed, or a mined-example
   graph (typestate nodes / downcast edges, whose splice order we cannot
   replay) — falls back to a full rebuild from the patched hierarchy. Both
   paths satisfy the same oracle: the patched snapshot is lane-for-lane
   identical to a cold rebuild from the patched model, except for
   [f_generation], which is bumped strictly monotonically so stale cache
   keys can never collide with a post-reload snapshot. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

type op =
  | Add_class of Decl.t
  | Remove_class of Qname.t
  | Replace_class of Decl.t

type error = {
  index : int;
  op_name : string;
  subject : string;
  reason : string;
}

type mode =
  | Spliced
  | Rebuilt

type patch = {
  p_frozen : Graph.frozen;
  p_hierarchy : Hierarchy.t;
  p_sources : Reach.Bits.t;
  p_touched_count : int;
  p_mode : mode;
  p_ops : int;
}

let op_name = function
  | Add_class _ -> "add-class"
  | Remove_class _ -> "remove-class"
  | Replace_class _ -> "replace-class"

let op_subject = function
  | Add_class d | Replace_class d -> Qname.to_string d.Decl.dname
  | Remove_class q -> Qname.to_string q

let mode_string = function Spliced -> "spliced" | Rebuilt -> "rebuilt"

(* ---------- validation and sequential application ---------- *)

(* Ops apply in order against a working copy, so a later op sees earlier
   effects (replace-after-add is valid, reference-after-remove is not).
   Validation is all-or-nothing but best-effort: every invalid op is
   reported, not just the first. *)
let validate_and_apply h' ops =
  let errors = ref [] in
  let structural = ref false in
  (* first pre-edit decl per replaced class, keyed by name *)
  let originals : (string, Decl.t) Hashtbl.t = Hashtbl.create 8 in
  let err index op reason =
    errors := { index; op_name = op_name op; subject = op_subject op; reason } :: !errors
  in
  let note_original q =
    let k = Qname.to_string q in
    if not (Hashtbl.mem originals k) then
      Hashtbl.replace originals k (Hierarchy.find h' q)
  in
  List.iteri
    (fun index op ->
      match op with
      | Add_class d ->
          if Hierarchy.mem h' d.Decl.dname then
            err index op "already declared (use replace-class)"
          else begin
            Hierarchy.add h' d;
            structural := true
          end
      | Remove_class q ->
          if Qname.equal q Qname.object_qname then
            err index op "java.lang.Object is not removable"
          else if not (Hierarchy.mem h' q) then err index op "not declared"
          else begin
            Hierarchy.remove h' q;
            structural := true
          end
      | Replace_class d ->
          if not (Hierarchy.mem h' d.Decl.dname) then
            err index op "not declared (use add-class)"
          else begin
            note_original d.Decl.dname;
            Hierarchy.replace h' d
          end)
    ops;
  (List.rev !errors, !structural, originals)

(* ---------- spliced-path eligibility ---------- *)

let member_owner = function
  | Elem.Field_access { owner; _ }
  | Elem.Static_call { owner; _ }
  | Elem.Ctor_call { owner; _ }
  | Elem.Instance_call { owner; _ } ->
      Some owner
  | Elem.Widen _ | Elem.Downcast _ -> None

(* Match [Graph.add_edge]'s dedup: an elem's (src, dst) is a function of the
   elem, and owners make elems from different decls distinct, so keep-first
   over the decl's own emission order reproduces the edges that actually
   land in the graph. *)
let dedup_elems elems =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.add seen e ();
        true
      end)
    elems

(* First-mention order of array types over the decl's interleaved
   input/output type stream — the exact order pass 2 of [Sig_graph.build]
   would intern them in. Node-id stability requires this sequence to be
   unchanged by the edit. *)
let array_mentions elems =
  let seen = Hashtbl.create 8 in
  List.concat_map (fun e -> [ Elem.input_type e; Elem.output_type e ]) elems
  |> List.filter (fun ty ->
         match ty with
         | Jtype.Array _ ->
             if Hashtbl.mem seen ty then false
             else begin
               Hashtbl.add seen ty ();
               true
             end
         | _ -> false)

let same_widening (a : Decl.t) (b : Decl.t) =
  a.Decl.kind = b.Decl.kind
  && List.length a.Decl.extends = List.length b.Decl.extends
  && List.for_all2 Qname.equal a.Decl.extends b.Decl.extends
  && List.length a.Decl.implements = List.length b.Decl.implements
  && List.for_all2 Qname.equal a.Decl.implements b.Decl.implements

(* ---------- the CSR splice ---------- *)

exception Fallback

(* Raised before any shared-lane write when the tail slack cannot hold the
   appended rows; the driver compacts with enough slack and retries. *)
exception Refit of int

type replacement = {
  r_old_elems : Elem.t list;  (* deduped, emission order *)
  r_new_elems : Elem.t list;  (* deduped, emission order *)
}

type row_entry =
  | Old of int  (* index into the (shared) old lanes *)
  | New of Graph.edge

type bwd_entry =
  | Oldb of int  (* index into the old bwd lanes *)
  | Newb of int * int  (* source node, rewritten fwd lane index *)

(* The append splice. The caller has already claimed [fz]'s tail token, so
   this patch owns the lanes' free tail exclusively: rewritten forward rows
   are written there (a region no published reader can index), the O(nodes)
   offset/end lanes are copied with those rows repointed, and every data
   lane is shared with the input by reference. Backward rows get the same
   treatment, and only rows whose {e content} changes are rebuilt: a
   backward row holds per-source groups in ascending-source order, so a
   rewritten source row whose cost contribution to [v] is unchanged
   leaves [v]'s row byte-identical — in particular the void hub row (one
   group per void-returning decl, the graph's widest) survives a typical
   body edit untouched. Nothing on this path is O(edges): the patch costs
   O(nodes) for the offset copies plus work proportional to the rewritten
   rows themselves. *)
let splice_once ~h_new ~(fz : Graph.frozen)
    ~(reps : (string * replacement) list) =
  let n = fz.Graph.f_nodes in
  let off = fz.Graph.f_fwd_off in
  let fin = fz.Graph.f_fwd_end in
  let rep_set = Hashtbl.create 8 in
  List.iter (fun (k, r) -> Hashtbl.replace rep_set k r) reps;
  let owner_key e =
    match member_owner e with None -> None | Some q -> Some (Qname.to_string q)
  in
  let node_of ty =
    match Graph.frozen_find_type_node fz ty with
    | Some id -> id
    | None -> raise Fallback
  in
  (* Decl rank = position in the hierarchy's iteration order; pass 2 emits
     member edges decl by decl in that order and [Graph.add_edge] conses to
     the row front, so a frozen row's member region holds per-decl blocks in
     strictly descending rank. Built lazily: ranks are only consulted when a
     replaced owner's block must be *inserted* into a row that had none —
     in-place substitution preserves the row's own (descending) order and
     needs no ranks, so the common body edit never pays this O(decls)
     pass. *)
  let rank =
    lazy
      (let tbl = Hashtbl.create (Hierarchy.size h_new) in
       let pos = ref 0 in
       Hierarchy.iter h_new (fun d ->
           Hashtbl.replace tbl (Qname.to_string d.Decl.dname) !pos;
           incr pos);
       tbl)
  in
  let rank_of k =
    match Hashtbl.find_opt (Lazy.force rank) k with
    | Some r -> r
    | None -> raise Fallback
  in
  (* New member blocks per (row, owner): the deduped emission-order elems
     with that input node, reversed into frozen-row order. *)
  let new_blocks : (int * string, Graph.edge list) Hashtbl.t = Hashtbl.create 32 in
  (* [touched] counts both endpoints of every added or removed edge, for
     the reply; [sources] holds their sources, all that {!Reach.patch}
     needs. *)
  let touched = Reach.Bits.create n in
  let touched_count = ref 0 in
  let touch u =
    if not (Reach.Bits.mem touched u) then begin
      Reach.Bits.set touched u;
      incr touched_count
    end
  in
  let sources = Reach.Bits.create n in
  let changed = ref 0 in
  (* Rows to rewrite: only those where the owner's elem *sequence* for the
     row changed. A body edit leaves most of a class's blocks byte-identical
     — the void node's static region (one block per contributing decl, the
     graph's widest row), every param-typed row of an untouched method —
     and identical blocks mean an identical cold row, so those rows stay
     where they are. This is what keeps a single-class patch proportional
     to the edit, not to the class's footprint. *)
  let touched_rows = Hashtbl.create 32 in
  List.iter
    (fun (k, r) ->
      let olds = Hashtbl.create 16 and news = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace olds e ()) r.r_old_elems;
      List.iter (fun e -> Hashtbl.replace news e ()) r.r_new_elems;
      let mark e =
        incr changed;
        let src = node_of (Elem.input_type e) in
        Reach.Bits.set sources src;
        touch src;
        touch (node_of (Elem.output_type e))
      in
      List.iter (fun e -> if not (Hashtbl.mem news e) then mark e) r.r_old_elems;
      List.iter (fun e -> if not (Hashtbl.mem olds e) then mark e) r.r_new_elems;
      (* per-row emission sequences, consed (so reversed); equal lists mean
         the frozen row's block for this owner is already the cold one *)
      let old_rows : (int, Elem.t list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun e ->
          let u = node_of (Elem.input_type e) in
          Hashtbl.replace old_rows u
            (e :: Option.value ~default:[] (Hashtbl.find_opt old_rows u)))
        r.r_old_elems;
      let new_rows : (int, Elem.t list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun e ->
          let src = node_of (Elem.input_type e) in
          let dst = node_of (Elem.output_type e) in
          let key = (src, k) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt new_blocks key) in
          (* consed, so the stored list is already frozen-row order *)
          Hashtbl.replace new_blocks key ({ Graph.elem = e; src; dst } :: prev);
          Hashtbl.replace new_rows src
            (e :: Option.value ~default:[] (Hashtbl.find_opt new_rows src)))
        r.r_new_elems;
      Hashtbl.iter
        (fun u old_seq ->
          match Hashtbl.find_opt new_rows u with
          | Some new_seq when new_seq = old_seq -> ()
          | _ -> Hashtbl.replace touched_rows u ())
        old_rows;
      Hashtbl.iter
        (fun u _ ->
          if not (Hashtbl.mem old_rows u) then Hashtbl.replace touched_rows u ())
        new_rows)
    reps;
  (* Rebuild a touched row: keep the non-member prefix, regroup the member
     region into per-owner blocks, and substitute the replaced owners'
     blocks in place — the row's own order is descending rank by
     construction, so substitution preserves the cold layout. Only a row
     gaining its *first* block for some owner needs decl ranks, to find the
     insertion point. *)
  let rebuild_row u =
    let lo = off.{u} and hi = fin.{u} in
    let prefix = ref [] in
    let blocks = ref [] in
    (* (owner, entries in row order) *)
    let cur_owner = ref None in
    let cur = ref [] in
    let flush () =
      match !cur_owner with
      | None -> ()
      | Some ok ->
          blocks := (ok, List.rev !cur) :: !blocks;
          cur_owner := None;
          cur := []
    in
    for k = lo to hi - 1 do
      match owner_key fz.Graph.f_fwd_edge.(k).Graph.elem with
      | None ->
          (* widening/array edges form the row prefix; one after a member
             edge would break the layout invariant *)
          if !cur_owner <> None || !blocks <> [] then raise Fallback;
          prefix := Old k :: !prefix
      | Some ok ->
          if !cur_owner <> Some ok then begin
            flush ();
            cur_owner := Some ok
          end;
          cur := Old k :: !cur
    done;
    flush ();
    let blocks = List.rev !blocks in
    (* each owner exactly once — a hub row (the void node's static region)
       can hold thousands of blocks, so this must stay linear in the block
       count *)
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (ok, _) ->
        if Hashtbl.mem seen ok then raise Fallback;
        Hashtbl.add seen ok ())
      blocks;
    let subst =
      List.filter_map
        (fun (ok, es) ->
          if Hashtbl.mem rep_set ok then
            match Hashtbl.find_opt new_blocks (u, ok) with
            | None | Some [] -> None
            | Some edges -> Some (ok, List.map (fun e -> New e) edges)
          else Some (ok, es))
        blocks
    in
    let gained =
      List.filter_map
        (fun (k, _) ->
          match Hashtbl.find_opt new_blocks (u, k) with
          | Some (_ :: _ as edges) when not (Hashtbl.mem seen k) ->
              Some (k, List.map (fun e -> New e) edges)
          | _ -> None)
        reps
    in
    let merged =
      if gained = [] then subst
      else
        (* an owner's first block in this row: rank every block and re-sort
           descending, which reproduces the cold layout *)
        List.map
          (fun (_, ok, es) -> (ok, es))
          (List.sort
             (fun (a, _, _) (b, _, _) -> compare b a)
             (List.map (fun (ok, es) -> (rank_of ok, ok, es)) (subst @ gained)))
    in
    Array.of_list (List.rev !prefix @ List.concat_map snd merged)
  in
  let rows = Hashtbl.fold (fun u () acc -> u :: acc) touched_rows [] in
  let rows = List.sort compare rows in
  let rebuilt = List.map (fun u -> (u, rebuild_row u)) rows in
  let entry_dst = function
    | Old j -> fz.Graph.f_fwd_dst.{j}
    | New e -> e.Graph.dst
  in
  let entry_cost = function
    | Old j -> fz.Graph.f_fwd_cost.{j}
    | New e -> Elem.cost e.Graph.elem
  in
  (* Forward placement: copy the offset/end lanes (the only O(nodes) work on
     this path) and repoint each rewritten row at the append cursor. Nothing
     is written to the shared data lanes yet — placement must be complete
     before the fit check, and the fit check before the first tail write. *)
  let off' = Graph.ba_int (n + 1) in
  Bigarray.Array1.blit fz.Graph.f_fwd_off off';
  let end' = Graph.ba_int n in
  Bigarray.Array1.blit fz.Graph.f_fwd_end end';
  let fcursor = ref fz.Graph.f_fwd_used in
  let removed = ref 0 in
  List.iter
    (fun (u, es) ->
      removed := !removed + (fin.{u} - off.{u});
      off'.{u} <- !fcursor;
      fcursor := !fcursor + Array.length es;
      end'.{u} <- !fcursor)
    rebuilt;
  let app_fwd = !fcursor - fz.Graph.f_fwd_used in
  let m' = fz.Graph.f_edges - !removed + app_fwd in
  (* (v, u) -> rewritten fwd lane indices of the edges u -> v, in row
     order — the backward merge consumes these. *)
  let new_into : (int * int, int list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (u, es) ->
      let base = off'.{u} in
      for i = Array.length es - 1 downto 0 do
        let v = entry_dst es.(i) in
        Hashtbl.replace new_into (v, u)
          ((base + i) :: Option.value ~default:[] (Hashtbl.find_opt new_into (v, u)))
      done)
    rebuilt;
  (* Backward rows that actually change: for each rewritten source row,
     diff its old vs new cost contribution per destination — the
     source id and the group's position in the row are fixed, so an equal
     contribution sequence means the backward row is already exact. *)
  let bchanged = Hashtbl.create 32 in
  List.iter
    (fun (u, es) ->
      let oldc : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      for k = off.{u} to fin.{u} - 1 do
        let v = fz.Graph.f_fwd_dst.{k} in
        Hashtbl.replace oldc v
          (fz.Graph.f_fwd_cost.{k} :: Option.value ~default:[] (Hashtbl.find_opt oldc v))
      done;
      let newc : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      Array.iter
        (fun entry ->
          let v = entry_dst entry in
          Hashtbl.replace newc v
            (entry_cost entry :: Option.value ~default:[] (Hashtbl.find_opt newc v)))
        es;
      Hashtbl.iter
        (fun v oldl ->
          if Hashtbl.find_opt newc v <> Some oldl then
            Hashtbl.replace bchanged v ())
        oldc;
      Hashtbl.iter
        (fun v _ ->
          if not (Hashtbl.mem oldc v) then Hashtbl.replace bchanged v ())
        newc)
    rebuilt;
  let boff = fz.Graph.f_bwd_off in
  let bfin = fz.Graph.f_bwd_end in
  let bsrc = fz.Graph.f_bwd_src in
  (* Rebuild a changed backward row by merging: rewritten source rows
     substitute for (or insert before) the old row's group at that source;
     every other group is kept in place. Both sides are in ascending-source
     order, and same-source groups are contiguous. *)
  let rebuild_bwd_row v =
    let lo = boff.{v} and hi = bfin.{v} in
    let out = ref [] in
    let emit_new u =
      match Hashtbl.find_opt new_into (v, u) with
      | Some ks -> List.iter (fun k -> out := Newb (u, k) :: !out) ks
      | None -> ()
    in
    let rec go j rs =
      match rs with
      | u :: rs' when j >= hi || bsrc.{j} >= u ->
          emit_new u;
          let j' = ref j in
          while !j' < hi && bsrc.{!j'} = u do
            incr j'
          done;
          go !j' rs'
      | _ ->
          if j < hi then begin
            out := Oldb j :: !out;
            go (j + 1) rs
          end
    in
    go lo rows;
    Array.of_list (List.rev !out)
  in
  let brows = Hashtbl.fold (fun v () acc -> v :: acc) bchanged [] in
  let brows = List.sort compare brows in
  let brebuilt = List.map (fun v -> (v, rebuild_bwd_row v)) brows in
  let boff' = Graph.ba_int (n + 1) in
  Bigarray.Array1.blit fz.Graph.f_bwd_off boff';
  let bend' = Graph.ba_int n in
  Bigarray.Array1.blit fz.Graph.f_bwd_end bend';
  let bcursor = ref fz.Graph.f_bwd_used in
  let bremoved = ref 0 in
  List.iter
    (fun (v, es) ->
      bremoved := !bremoved + (bfin.{v} - boff.{v});
      boff'.{v} <- !bcursor;
      bcursor := !bcursor + Array.length es;
      bend'.{v} <- !bcursor)
    brebuilt;
  let app_bwd = !bcursor - fz.Graph.f_bwd_used in
  (* the rebuilt bwd rows must account for exactly the new edge set; a
     mismatch means a violated layout assumption — fall back to rebuild *)
  if fz.Graph.f_edges - !bremoved + app_bwd <> m' then raise Fallback;
  (* Fit check — still nothing written to shared storage. *)
  if
    !fcursor > Bigarray.Array1.dim fz.Graph.f_fwd_dst
    || !bcursor > Bigarray.Array1.dim fz.Graph.f_bwd_src
  then raise (Refit (max app_fwd app_bwd));
  (* Tail writes. Reads ([Old]/[Oldb]/[Newb]) index below the old high-water
     marks or into rows this patch just wrote; writes land at or past them —
     disjoint from every region any published reader can reach. *)
  let dst = fz.Graph.f_fwd_dst
  and cost = fz.Graph.f_fwd_cost
  and edge = fz.Graph.f_fwd_edge in
  List.iter
    (fun (u, es) ->
      let k = ref off'.{u} in
      Array.iter
        (fun entry ->
          (match entry with
          | Old j ->
              dst.{!k} <- dst.{j};
              cost.{!k} <- cost.{j};
              edge.(!k) <- edge.(j)
          | New e ->
              dst.{!k} <- e.Graph.dst;
              cost.{!k} <- Elem.cost e.Graph.elem;
              edge.(!k) <- e);
          incr k)
        es)
    rebuilt;
  let bcost = fz.Graph.f_bwd_cost in
  List.iter
    (fun (v, es) ->
      let i = ref boff'.{v} in
      Array.iter
        (fun entry ->
          (match entry with
          | Oldb j ->
              bsrc.{!i} <- bsrc.{j};
              bcost.{!i} <- bcost.{j}
          | Newb (u, k) ->
              bsrc.{!i} <- u;
              bcost.{!i} <- cost.{k});
          incr i)
        es)
    brebuilt;
  let fz' =
    {
      fz with
      Graph.f_generation = fz.Graph.f_generation + !changed + 1;
      f_edges = m';
      f_fwd_off = off';
      f_fwd_end = end';
      f_bwd_off = boff';
      f_bwd_end = bend';
      f_fwd_used = !fcursor;
      f_bwd_used = !bcursor;
      (* fresh token: it guards the *new* high-water marks *)
      f_tail = Atomic.make false;
    }
  in
  (fz', sources, !touched_count)

(* Claim the tail before splicing. Exactly one patch per lane storage wins
   the compare-and-set; a loser (a sibling patch of the same base, or a
   lineage whose slack a previous patch claimed and abandoned) compacts
   into fresh lanes first — whose token it owns by construction. Slack
   exhaustion surfaces as [Refit] before any shared write, and retries once
   on lanes compacted with enough room. *)
let splice ~h_new ~(fz : Graph.frozen) ~reps =
  let base =
    if Atomic.compare_and_set fz.Graph.f_tail false true then fz
    else begin
      let c = Graph.compact fz in
      Atomic.set c.Graph.f_tail true;
      c
    end
  in
  try splice_once ~h_new ~fz:base ~reps
  with Refit need ->
    let c =
      Graph.compact ~slack:(need + Graph.default_slack fz.Graph.f_edges) fz
    in
    Atomic.set c.Graph.f_tail true;
    splice_once ~h_new ~fz:c ~reps

(* ---------- entry point ---------- *)

(* The input hierarchy is closed (every load and every patch result is),
   so only the delta can open it, through the names its own final
   declarations mention. A removal opens every declaration that referred
   to the removed name too, and referrers are not indexed, so a delta with
   a removal closes the whole hierarchy. Either way the placeholders are
   the ones a whole-hierarchy closure would add, in the same order. *)
let close_delta h' ops =
  if List.exists (function Remove_class _ -> true | _ -> false) ops then
    Hierarchy.ensure_closed h'
  else
    Hierarchy.close_over h'
      (List.filter_map
         (function
           | Add_class d | Replace_class d -> Hierarchy.find_opt h' d.Decl.dname
           | Remove_class _ -> None)
         ops)

(* [build] is the caller's cold build when it passed one (an enriched
   server must keep its mined nodes and edges); [None] builds from
   signatures only. *)
let rebuild ~build ~config ~h' ~old_frozen ops =
  close_delta h' ops;
  let fz =
    match build with
    | Some build -> build h'
    | None -> Graph.freeze (Sig_graph.build ~config h')
  in
  (* A fresh build's generation (nodes + edges) can collide with the old
     snapshot's; force strict monotonic growth so stale cache keys can never
     alias the reloaded world. *)
  let fz =
    {
      fz with
      Graph.f_generation = old_frozen.Graph.f_generation + List.length ops + 1;
    }
  in
  let old_n = old_frozen.Graph.f_nodes in
  let sources = Reach.Bits.create old_n in
  for u = 0 to old_n - 1 do
    Reach.Bits.set sources u
  done;
  (fz, sources, old_n)

(* [?wcost] is ignored: [perfbench/traced.ml] still passes one. *)
let apply ?(config = Sig_graph.default_config) ?wcost:_ ?rebuild:build ~hierarchy ~frozen
    ops =
  let h' = Hierarchy.copy hierarchy in
  let errors, structural, originals = validate_and_apply h' ops in
  if errors <> [] then Error errors
  else begin
    let nops = List.length ops in
    let finish mode (fz, sources, touched_count) =
      Ok
        {
          p_frozen = fz;
          p_hierarchy = h';
          p_sources = sources;
          p_touched_count = touched_count;
          p_mode = mode;
          p_ops = nops;
        }
    in
    let eligible =
      (not structural)
      (* typestate nodes and downcast edges come from mined-example splicing
         whose insertion order the delta layer cannot replay; enriched
         snapshots always take the rebuild path *)
      && frozen.Graph.f_plain
      && Hashtbl.fold
           (fun _k (old_d : Decl.t) acc ->
             acc
             &&
             let new_d = Hierarchy.find h' old_d.Decl.dname in
             same_widening old_d new_d
             && Qname.Set.for_all
                  (fun q -> Hierarchy.mem hierarchy q)
                  (Hierarchy.referenced_qnames new_d)
             &&
             let old_elems = dedup_elems (Sig_graph.elems_of_decl ~config old_d) in
             let new_elems = dedup_elems (Sig_graph.elems_of_decl ~config new_d) in
             List.length (array_mentions old_elems)
             = List.length (array_mentions new_elems)
             && List.for_all2 Jtype.equal (array_mentions old_elems)
                  (array_mentions new_elems))
           originals true
    in
    if not eligible then
      finish Rebuilt (rebuild ~build ~config ~h' ~old_frozen:frozen ops)
    else begin
      let reps =
        Hashtbl.fold
          (fun k (old_d : Decl.t) acc ->
            let new_d = Hierarchy.find h' old_d.Decl.dname in
            ( k,
              {
                r_old_elems = dedup_elems (Sig_graph.elems_of_decl ~config old_d);
                r_new_elems = dedup_elems (Sig_graph.elems_of_decl ~config new_d);
              } )
            :: acc)
          originals []
      in
      match splice ~h_new:h' ~fz:frozen ~reps with
      | result -> finish Spliced result
      | exception Fallback ->
          finish Rebuilt (rebuild ~build ~config ~h' ~old_frozen:frozen ops)
    end
  end

(* ---------- the correctness oracle ---------- *)

let ids_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Row-wise comparison of the adjacency: a patched snapshot relocates
   rewritten rows into the lanes' tail, so physical lane layout is not
   comparable — logical rows are. *)
let rows_equal (a : Graph.frozen) (b : Graph.frozen) =
  let n = a.Graph.f_nodes in
  try
    for u = 0 to n - 1 do
      let ka = a.Graph.f_fwd_off.{u} and kb = b.Graph.f_fwd_off.{u} in
      let la = a.Graph.f_fwd_end.{u} - ka in
      if la <> b.Graph.f_fwd_end.{u} - kb then raise Exit;
      for i = 0 to la - 1 do
        if
          a.Graph.f_fwd_dst.{ka + i} <> b.Graph.f_fwd_dst.{kb + i}
          || a.Graph.f_fwd_cost.{ka + i} <> b.Graph.f_fwd_cost.{kb + i}
          || a.Graph.f_fwd_edge.(ka + i) <> b.Graph.f_fwd_edge.(kb + i)
        then raise Exit
      done;
      let ka = a.Graph.f_bwd_off.{u} and kb = b.Graph.f_bwd_off.{u} in
      let la = a.Graph.f_bwd_end.{u} - ka in
      if la <> b.Graph.f_bwd_end.{u} - kb then raise Exit;
      for i = 0 to la - 1 do
        if
          a.Graph.f_bwd_src.{ka + i} <> b.Graph.f_bwd_src.{kb + i}
          || a.Graph.f_bwd_cost.{ka + i} <> b.Graph.f_bwd_cost.{kb + i}
        then raise Exit
      done
    done;
    true
  with Exit -> false

(* Logical equality of two snapshots, ignoring [f_generation] (a patched
   snapshot deliberately outruns the fresh-build counter) and physical
   layout (row placement, tail slack, high-water marks). This is the reload
   oracle: [patched ≡ cold rebuild from the patched model]. *)
let frozen_equal (a : Graph.frozen) (b : Graph.frozen) =
  a.Graph.f_nodes = b.Graph.f_nodes
  && a.Graph.f_edges = b.Graph.f_edges
  && rows_equal a b
  && a.Graph.f_types = b.Graph.f_types
  && a.Graph.f_origins = b.Graph.f_origins
  && ids_bindings a.Graph.f_ids = ids_bindings b.Graph.f_ids
  && a.Graph.f_void = b.Graph.f_void
