module Jtype = Javamodel.Jtype

type node = int

type edge = {
  elem : Elem.t;
  src : node;
  dst : node;
}

type info = {
  ty : Jtype.t;
  origin : string option;  (* Some = typestate node *)
}

type t = {
  ids : (string, node) Hashtbl.t;  (* real type key -> id *)
  mutable info : info array;
  mutable fwd : edge list array;
  mutable bwd : edge list array;
  mutable n : int;
  mutable edges : int;
  mutable generation : int;
}

let initial_capacity = 256

let create () =
  {
    ids = Hashtbl.create initial_capacity;
    info = Array.make initial_capacity { ty = Jtype.Void; origin = None };
    fwd = Array.make initial_capacity [];
    bwd = Array.make initial_capacity [];
    n = 0;
    edges = 0;
    generation = 0;
  }

let grow t =
  let cap = Array.length t.info in
  if t.n >= cap then begin
    let cap' = cap * 2 in
    let info' = Array.make cap' { ty = Jtype.Void; origin = None } in
    Array.blit t.info 0 info' 0 t.n;
    t.info <- info';
    let fwd' = Array.make cap' [] in
    Array.blit t.fwd 0 fwd' 0 t.n;
    t.fwd <- fwd';
    let bwd' = Array.make cap' [] in
    Array.blit t.bwd 0 bwd' 0 t.n;
    t.bwd <- bwd'
  end

let fresh_node t info =
  grow t;
  let id = t.n in
  t.info.(id) <- info;
  t.n <- t.n + 1;
  t.generation <- t.generation + 1;
  id

let type_key ty = Jtype.to_string ty

let ensure_type_node t ty =
  let key = type_key ty in
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
      let id = fresh_node t { ty; origin = None } in
      Hashtbl.replace t.ids key id;
      id

let find_type_node t ty = Hashtbl.find_opt t.ids (type_key ty)

let void_node t = ensure_type_node t Jtype.Void

let add_typestate t ~underlying ~origin =
  fresh_node t { ty = underlying; origin = Some origin }

(* A duplicate of [(src, elem, dst)] sits in both [fwd.(src)] and
   [bwd.(dst)], so walking the two lists in lockstep finds it before the
   shorter one runs out: at most twice the shorter list per insertion. A hub
   row (void's out-list, Object's in-list) is paid for only up to the length
   of the other endpoint's list. *)
let mem_edge t ~src elem ~dst =
  let same e = compare e.elem elem = 0 in
  let rec walk out in_ =
    match (out, in_) with
    | [], _ | _, [] -> false
    | o :: out', i :: in' ->
        (o.dst = dst && same o) || (i.src = src && same i) || walk out' in'
  in
  walk t.fwd.(src) t.bwd.(dst)

let add_edge t ~src elem ~dst =
  if not (mem_edge t ~src elem ~dst) then begin
    let e = { elem; src; dst } in
    t.fwd.(src) <- e :: t.fwd.(src);
    t.bwd.(dst) <- e :: t.bwd.(dst);
    t.edges <- t.edges + 1;
    t.generation <- t.generation + 1
  end

let node_type t id = t.info.(id).ty

let is_typestate t id = t.info.(id).origin <> None

let typestate_origin t id = t.info.(id).origin

let succs t id = t.fwd.(id)

let preds t id = t.bwd.(id)

let node_count t = t.n

let edge_count t = t.edges

let generation t = t.generation

let nodes t = List.init t.n (fun i -> i)

let iter_edges t f =
  for i = 0 to t.n - 1 do
    List.iter f t.fwd.(i)
  done

let real_nodes t =
  Hashtbl.fold (fun _ id acc -> (t.info.(id).ty, id) :: acc) t.ids []
  |> List.sort (fun (a, _) (b, _) -> Jtype.compare a b)

(* ---------- frozen CSR snapshot ---------- *)

(* Hot arrays live out of the OCaml heap. Kind [Bigarray.int] (a native
   word) rather than the int32 one might expect: without flambda every
   [Int32] read allocates a box, which would put an allocation on every
   relaxed edge — the exact cost this layout exists to remove. Edge costs
   are 0/1 so they pack into uint16 lanes. *)
type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type cost_array1 =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba_int len : int_array1 =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

let ba_cost len : cost_array1 =
  Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout len

type frozen = {
  f_generation : int;
  f_nodes : int;
  f_edges : int;
  f_fwd_off : int_array1;
  f_fwd_end : int_array1;
  f_fwd_dst : int_array1;
  f_fwd_cost : cost_array1;
  f_fwd_wcost : int array;
  f_fwd_edge : edge array;
  f_bwd_off : int_array1;
  f_bwd_end : int_array1;
  f_bwd_src : int_array1;
  f_bwd_cost : cost_array1;
  f_bwd_wcost : int array;
  f_fwd_used : int;
  f_bwd_used : int;
  f_plain : bool;
  f_tail : bool Atomic.t;
  f_types : Jtype.t array;
  f_origins : string option array;
  f_ids : (string, node) Hashtbl.t;
  f_void : node option;
}

let default_wcost e = Elem.cost_scale * Elem.cost e

(* Tail slack reserved past the last live edge so incremental patches
   ([Delta]) can relocate rewritten rows by appending instead of copying
   every lane. ~12.5% keeps the overhead bounded while surviving many
   single-class edits before a compaction. *)
let default_slack m = max 64 (m / 8)

(* A dense snapshot's row ends are exactly the next row's offsets, so the
   end lane is a storage-sharing view of [off] shifted by one. *)
let dense_end (off : int_array1) n : int_array1 = Bigarray.Array1.sub off 1 n

(* Backward rows are derived from the forward rows by a counting sort on
   destination, so each [v]'s predecessors appear in ascending forward-edge
   order. This makes the backward representation a pure function of the
   forward one, so derived snapshots ([Shard]) and patched ones ([Delta])
   reproduce it without any stored fwd->bwd mapping. Distance sweeps are
   relaxation-order independent, so the (deliberate) departure from [preds]
   order is unobservable in results. *)
let derive_bwd ?cap ~n ~m ~(fwd_off : int_array1) ~(fwd_end : int_array1)
    ~(fwd_dst : int_array1) ~(fwd_cost : cost_array1) ~fwd_wcost () =
  let cap = match cap with Some c -> c | None -> m in
  let bwd_off = ba_int (n + 1) in
  Bigarray.Array1.fill bwd_off 0;
  for u = 0 to n - 1 do
    for k = fwd_off.{u} to fwd_end.{u} - 1 do
      let v = fwd_dst.{k} in
      bwd_off.{v + 1} <- bwd_off.{v + 1} + 1
    done
  done;
  for v = 0 to n - 1 do
    bwd_off.{v + 1} <- bwd_off.{v + 1} + bwd_off.{v}
  done;
  let bwd_src = ba_int cap in
  let bwd_cost = ba_cost cap in
  let bwd_wcost = Array.make cap 0 in
  let cursor = Array.make (max n 1) 0 in
  for u = 0 to n - 1 do
    for k = fwd_off.{u} to fwd_end.{u} - 1 do
      let v = fwd_dst.{k} in
      let j = bwd_off.{v} + cursor.(v) in
      cursor.(v) <- cursor.(v) + 1;
      bwd_src.{j} <- u;
      bwd_cost.{j} <- fwd_cost.{k};
      bwd_wcost.(j) <- fwd_wcost.(k)
    done
  done;
  (bwd_off, bwd_src, bwd_cost, bwd_wcost)

let freeze ?(wcost = default_wcost) t =
  let n = t.n in
  (* Forward adjacency, in the exact order [succs] yields it, so a DFS over
     the CSR enumerates paths in the same order as one over the lists. *)
  let fwd_off = ba_int (n + 1) in
  fwd_off.{0} <- 0;
  for u = 0 to n - 1 do
    fwd_off.{u + 1} <- fwd_off.{u} + List.length t.fwd.(u)
  done;
  let m = fwd_off.{n} in
  let cap = m + default_slack m in
  let dummy =
    { elem = Elem.Widen { from_ = Jtype.Void; to_ = Jtype.Void }; src = 0; dst = 0 }
  in
  let fwd_dst = ba_int cap in
  let fwd_cost = ba_cost cap in
  let fwd_wcost = Array.make cap 0 in
  let fwd_edge = Array.make cap dummy in
  let plain = ref true in
  for u = 0 to n - 1 do
    let k = ref fwd_off.{u} in
    List.iter
      (fun e ->
        fwd_dst.{!k} <- e.dst;
        fwd_cost.{!k} <- Elem.cost e.elem;
        fwd_wcost.(!k) <- wcost e.elem;
        fwd_edge.(!k) <- e;
        if Elem.is_downcast e.elem then plain := false;
        incr k)
      t.fwd.(u)
  done;
  let fwd_end = dense_end fwd_off n in
  let bwd_off, bwd_src, bwd_cost, bwd_wcost =
    derive_bwd ~cap ~n ~m ~fwd_off ~fwd_end ~fwd_dst ~fwd_cost ~fwd_wcost ()
  in
  for i = 0 to n - 1 do
    if t.info.(i).origin <> None then plain := false
  done;
  {
    f_generation = t.generation;
    f_nodes = n;
    f_edges = t.edges;
    f_fwd_off = fwd_off;
    f_fwd_end = fwd_end;
    f_fwd_dst = fwd_dst;
    f_fwd_cost = fwd_cost;
    f_fwd_wcost = fwd_wcost;
    f_fwd_edge = fwd_edge;
    f_bwd_off = bwd_off;
    f_bwd_end = dense_end bwd_off n;
    f_bwd_src = bwd_src;
    f_bwd_cost = bwd_cost;
    f_bwd_wcost = bwd_wcost;
    f_fwd_used = m;
    f_bwd_used = m;
    f_plain = !plain;
    f_tail = Atomic.make false;
    f_types = Array.init n (fun i -> t.info.(i).ty);
    f_origins = Array.init n (fun i -> t.info.(i).origin);
    f_ids = Hashtbl.copy t.ids;
    f_void = Hashtbl.find_opt t.ids (type_key Jtype.Void);
  }

(* Dense copy of a (possibly appended / holey) snapshot: rows packed back
   into offset order with fresh tail slack. Maximal physically contiguous
   stretches of rows are copied with one blit each, so compacting a
   lightly-patched snapshot is a handful of memcpys. *)
let compact ?slack fz =
  let n = fz.f_nodes in
  let off = fz.f_fwd_off and fin = fz.f_fwd_end in
  let off' = ba_int (n + 1) in
  off'.{0} <- 0;
  for u = 0 to n - 1 do
    off'.{u + 1} <- off'.{u} + (fin.{u} - off.{u})
  done;
  let m = off'.{n} in
  let cap = m + (match slack with Some s -> s | None -> default_slack m) in
  let dummy =
    { elem = Elem.Widen { from_ = Jtype.Void; to_ = Jtype.Void }; src = 0; dst = 0 }
  in
  let run_copy ~(off : int_array1) ~(fin : int_array1) ~(off' : int_array1)
      copy_span =
    let u = ref 0 in
    while !u < n do
      let u0 = !u in
      let p0 = off.{u0} in
      let pe = ref fin.{u0} in
      incr u;
      while !u < n && off.{!u} = !pe do
        pe := fin.{!u};
        incr u
      done;
      let len = !pe - p0 in
      if len > 0 then copy_span ~src0:p0 ~dst0:off'.{u0} ~len
    done
  in
  let dst' = ba_int cap in
  let cost' = ba_cost cap in
  let wcost' = Array.make cap 0 in
  let edge' = Array.make cap dummy in
  run_copy ~off ~fin ~off' (fun ~src0 ~dst0 ~len ->
      Bigarray.Array1.blit
        (Bigarray.Array1.sub fz.f_fwd_dst src0 len)
        (Bigarray.Array1.sub dst' dst0 len);
      Bigarray.Array1.blit
        (Bigarray.Array1.sub fz.f_fwd_cost src0 len)
        (Bigarray.Array1.sub cost' dst0 len);
      Array.blit fz.f_fwd_wcost src0 wcost' dst0 len;
      Array.blit fz.f_fwd_edge src0 edge' dst0 len);
  let boff = fz.f_bwd_off and bfin = fz.f_bwd_end in
  let boff' = ba_int (n + 1) in
  boff'.{0} <- 0;
  for v = 0 to n - 1 do
    boff'.{v + 1} <- boff'.{v} + (bfin.{v} - boff.{v})
  done;
  let bsrc' = ba_int cap in
  let bcost' = ba_cost cap in
  let bwcost' = Array.make cap 0 in
  run_copy ~off:boff ~fin:bfin ~off':boff' (fun ~src0 ~dst0 ~len ->
      Bigarray.Array1.blit
        (Bigarray.Array1.sub fz.f_bwd_src src0 len)
        (Bigarray.Array1.sub bsrc' dst0 len);
      Bigarray.Array1.blit
        (Bigarray.Array1.sub fz.f_bwd_cost src0 len)
        (Bigarray.Array1.sub bcost' dst0 len);
      Array.blit fz.f_bwd_wcost src0 bwcost' dst0 len);
  {
    fz with
    f_fwd_off = off';
    f_fwd_end = dense_end off' n;
    f_fwd_dst = dst';
    f_fwd_cost = cost';
    f_fwd_wcost = wcost';
    f_fwd_edge = edge';
    f_bwd_off = boff';
    f_bwd_end = dense_end boff' n;
    f_bwd_src = bsrc';
    f_bwd_cost = bcost';
    f_bwd_wcost = bwcost';
    f_fwd_used = m;
    f_bwd_used = m;
    f_tail = Atomic.make false;
  }

let frozen_generation fz = fz.f_generation

let frozen_node_count fz = fz.f_nodes

let frozen_edge_count fz = fz.f_edges

let frozen_find_type_node fz ty = Hashtbl.find_opt fz.f_ids (type_key ty)

let frozen_void_node fz = fz.f_void

let frozen_node_type fz id = fz.f_types.(id)

let frozen_is_typestate fz id = fz.f_origins.(id) <> None

let frozen_succs fz u =
  let rec go k acc =
    if k < fz.f_fwd_off.{u} then acc else go (k - 1) (fz.f_fwd_edge.(k) :: acc)
  in
  go (fz.f_fwd_end.{u} - 1) []

(* Row-wise, because the lanes can hold tail slack and relocated rows'
   abandoned regions — physical order is not edge order. *)
let frozen_iter_edges fz f =
  for u = 0 to fz.f_nodes - 1 do
    for k = fz.f_fwd_off.{u} to fz.f_fwd_end.{u} - 1 do
      f fz.f_fwd_edge.(k)
    done
  done
