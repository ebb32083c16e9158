type path = {
  source : Graph.node;
  edges : Graph.edge list;
}

let path_cost p = List.fold_left (fun acc e -> acc + Elem.cost e.Graph.elem) 0 p.edges

(* A growable circular deque of ints for the CSR 0-1 BFS. Entries pack a
   (distance, node) pair as [(d lsl 31) lor u]; distances are bounded by the
   node count and node ids are dense, so both halves fit comfortably. The
   flat buffer means a relaxation allocates nothing.

   Re-queue invariant: an entry is pushed only when its distance strictly
   improves the node's — 0-cost relaxations to the front, 1-cost ones to
   the back — so the deque holds at most two consecutive distance values at
   any time. A popped entry whose distance no longer matches the node's is
   stale (the node was improved again after it was queued) and is skipped,
   not re-expanded. *)
module Ideque = struct
  type t = {
    mutable buf : int array;
    mutable head : int;  (* index of the front element *)
    mutable len : int;
  }

  let create () = { buf = Array.make 64 0; head = 0; len = 0 }

  (* A drained deque keeps its grown buffer; reset just rewinds the
     cursors so the buffer can serve the next query. *)
  let reset d =
    d.head <- 0;
    d.len <- 0

  let grow d =
    let cap = Array.length d.buf in
    let buf' = Array.make (cap * 2) 0 in
    for i = 0 to d.len - 1 do
      buf'.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- buf';
    d.head <- 0

  let push_front d x =
    if d.len = Array.length d.buf then grow d;
    let cap = Array.length d.buf in
    d.head <- (d.head + cap - 1) mod cap;
    d.buf.(d.head) <- x;
    d.len <- d.len + 1

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- x;
    d.len <- d.len + 1

  (* Packed entries are non-negative, so -1 is a safe empty marker. *)
  let pop_front d =
    if d.len = 0 then -1
    else begin
      let x = d.buf.(d.head) in
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      x
    end
end

(* ------------------------------------------------------------------ *)
(* Epoch-stamped distance maps and per-domain scratch                  *)
(* ------------------------------------------------------------------ *)

(* A distance map that may be backed by recycled scratch: entry [u] is
   valid only when [stamp.(u) = epoch], otherwise it reads as [max_int].
   The point of the stamps is that a recycled lane never needs an O(n)
   clearing pass between queries: bumping the epoch invalidates every
   previous entry at once. *)
module Dist = struct
  type t = {
    d : int array;  (* capacity may exceed the current graph's node count *)
    stamp : int array;
    epoch : int;
  }

  let[@inline] get t u =
    if u < 0 || u >= Array.length t.d then max_int
    else if Array.unsafe_get t.stamp u = t.epoch then Array.unsafe_get t.d u
    else max_int

  let snapshot ~n t = Array.init n (fun u -> get t u)
end

(* Per-domain scratch: distance/stamp lanes and one packed deque, reused
   across queries so the steady-state search allocates nothing O(n). A
   caller brackets its query in [with_frame]; lanes taken inside the frame
   return to the free list when the outermost frame ends (frames nest —
   only the outermost releases, so a query running inside another query's
   frame cannot recycle its caller's live lanes). Taking a lane bumps its
   epoch, which invalidates all its previous contents without touching
   them; on the (once per ~2^62 takes) epoch wrap the stamps are zeroed
   explicitly. Outside any frame [take] hands out a fresh one-shot lane —
   nothing would ever release a pooled one, and one-shot lanes are safe to
   let escape: a caller without a frame may keep the [Dist.t] it got. *)
module Scratch = struct
  type lane = {
    mutable ld : int array;
    mutable lstamp : int array;
    mutable lepoch : int;
  }

  type t = {
    mutable free : lane list;
    mutable busy : lane list;
    mutable dq : Ideque.t option;
    mutable depth : int;
  }

  let create () = { free = []; busy = []; dq = Some (Ideque.create ()); depth = 0 }

  let key = Domain.DLS.new_key create

  let domain () = Domain.DLS.get key

  let oneshot n = { ld = Array.make n 0; lstamp = Array.make n 0; lepoch = 1 }

  let take t n =
    if t.depth = 0 then oneshot n
    else begin
      let l =
        match t.free with
        | l :: rest ->
            t.free <- rest;
            l
        | [] -> { ld = [||]; lstamp = [||]; lepoch = 0 }
      in
      t.busy <- l :: t.busy;
      if Array.length l.ld < n then begin
        let cap = max n (2 * Array.length l.ld) in
        l.ld <- Array.make cap 0;
        l.lstamp <- Array.make cap 0;
        l.lepoch <- 0
      end;
      if l.lepoch = max_int then begin
        Array.fill l.lstamp 0 (Array.length l.lstamp) 0;
        l.lepoch <- 0
      end;
      l.lepoch <- l.lepoch + 1;
      l
    end

  let take_dq t =
    match t.dq with
    | Some d ->
        t.dq <- None;
        Ideque.reset d;
        d
    | None -> Ideque.create ()

  let give_dq t d =
    match t.dq with
    | None ->
        Ideque.reset d;
        t.dq <- Some d
    | Some _ -> ()

  let enter t = t.depth <- t.depth + 1

  let leave t =
    t.depth <- t.depth - 1;
    if t.depth <= 0 then begin
      t.depth <- 0;
      t.free <- List.rev_append t.busy t.free;
      t.busy <- []
    end

  let with_frame t f =
    enter t;
    Fun.protect ~finally:(fun () -> leave t) f
end

(* Dijkstra for the weighted (mined) cost model, where edge costs are
   arbitrary non-negative ints and the 0-1 deque trick no longer applies.
   The heap holds (dist, node) in two parallel arrays — unpacked, because
   weighted distances need not fit the 31-bit packing of the 0-1 deque.
   Lazy deletion: stale entries (dist no longer current) are skipped.
   Distances live in an epoch-stamped lane so it can be recycled across
   queries. *)
let dijkstra_into (lane : Scratch.lane) n ~starts ~next =
  let dist = lane.Scratch.ld
  and stamp = lane.Scratch.lstamp
  and epoch = lane.Scratch.lepoch in
  let hd = ref (Array.make 64 0) in
  (* distances *)
  let hn = ref (Array.make 64 0) in
  (* nodes *)
  let len = ref 0 in
  let swap i j =
    let d = !hd.(i) in
    !hd.(i) <- !hd.(j);
    !hd.(j) <- d;
    let v = !hn.(i) in
    !hn.(i) <- !hn.(j);
    !hn.(j) <- v
  in
  let push d u =
    if !len = Array.length !hd then begin
      let cap' = !len * 2 in
      let hd' = Array.make cap' 0 and hn' = Array.make cap' 0 in
      Array.blit !hd 0 hd' 0 !len;
      Array.blit !hn 0 hn' 0 !len;
      hd := hd';
      hn := hn'
    end;
    !hd.(!len) <- d;
    !hn.(!len) <- u;
    let i = ref !len in
    incr len;
    while !i > 0 && !hd.((!i - 1) / 2) > !hd.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let d = !hd.(0) and u = !hn.(0) in
    decr len;
    swap 0 !len;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !len && !hd.(l) < !hd.(!s) then s := l;
      if r < !len && !hd.(r) < !hd.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        swap !i !s;
        i := !s
      end
    done;
    (d, u)
  in
  List.iter
    (fun s ->
      if s >= 0 && s < n && (stamp.(s) <> epoch || dist.(s) > 0) then begin
        dist.(s) <- 0;
        stamp.(s) <- epoch;
        push 0 s
      end)
    starts;
  while !len > 0 do
    let du, u = pop () in
    if du = dist.(u) then
      next u (fun cost v ->
          let d = du + cost in
          let dv =
            if Array.unsafe_get stamp v = epoch then Array.unsafe_get dist v
            else max_int
          in
          if d < dv then begin
            dist.(v) <- d;
            stamp.(v) <- epoch;
            push d v
          end)
  done

(* When the DFS stops at [limit] the enumeration is clipped mid-flight; the
   [?truncated] flag (OR-ed, never cleared) lets callers surface that the
   result set may be incomplete instead of silently shipping a prefix. A
   count that lands exactly on [limit] is reported as truncated even if the
   DFS happened to have nothing further — conservative by design. *)
let flag_truncated truncated ~count ~limit =
  match truncated with
  | Some r -> if !count >= limit then r := true
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The kernels, over a frozen snapshot's CSR lanes                     *)
(* ------------------------------------------------------------------ *)

module Csr = struct
  let lane_of scratch n =
    match scratch with Some s -> Scratch.take s n | None -> Scratch.oneshot n

  let dist_of (lane : Scratch.lane) =
    { Dist.d = lane.Scratch.ld; stamp = lane.Scratch.lstamp; epoch = lane.Scratch.lepoch }

  (* Shared 0-1 BFS core over one direction of the CSR: [off]/[adj]/[cost]
     are either the forward or the backward lanes. The viability check is
     the cone's bitset probed inline — two array loads per relaxed edge, no
     closure call. *)
  let bfs_into (lane : Scratch.lane) dq n ~starts ~(off : Graph.int_array1)
      ~(fin : Graph.int_array1) ~(adj : Graph.int_array1)
      ~(cost : Graph.cost_array1) ~cone =
    let dist = lane.Scratch.ld
    and stamp = lane.Scratch.lstamp
    and epoch = lane.Scratch.lepoch in
    let comp, cbits =
      match (cone : Reach.cone option) with
      | Some c -> (c.Reach.cone_comp, c.Reach.cone_bits)
      | None -> ([||], [||])
    in
    let pruned = Array.length comp > 0 in
    List.iter
      (fun s ->
        if s >= 0 && s < n && (stamp.(s) <> epoch || dist.(s) > 0) then begin
          dist.(s) <- 0;
          stamp.(s) <- epoch;
          Ideque.push_front dq s (* d = 0: the packed entry is just the id *)
        end)
      starts;
    let continue = ref true in
    while !continue do
      let x = Ideque.pop_front dq in
      if x < 0 then continue := false
      else begin
        let u = x land 0x7FFFFFFF in
        let du = x lsr 31 in
        (* [u] was pushed, so its stamp is current: the plain read is exact. *)
        if du = dist.(u) then
          for k = off.{u} to fin.{u} - 1 do
            let v = adj.{k} in
            let c = cost.{k} in
            let d = du + c in
            let dv =
              if Array.unsafe_get stamp v = epoch then Array.unsafe_get dist v
              else max_int
            in
            if
              d < dv
              && ((not pruned)
                 || Reach.Bits.mem cbits (Array.unsafe_get comp v))
            then begin
              Array.unsafe_set dist v d;
              Array.unsafe_set stamp v epoch;
              let packed = (d lsl 31) lor v in
              if c = 0 then Ideque.push_front dq packed else Ideque.push_back dq packed
            end
          done
      end
    done

  let bfs ?scratch n ~starts ~off ~fin ~adj ~cost ~cone =
    let lane = lane_of scratch n in
    let dq =
      match scratch with Some s -> Scratch.take_dq s | None -> Ideque.create ()
    in
    bfs_into lane dq n ~starts ~off ~fin ~adj ~cost ~cone;
    (match scratch with Some s -> Scratch.give_dq s dq | None -> ());
    dist_of lane

  let distances_to ?scratch ?cone fz ~target =
    bfs ?scratch fz.Graph.f_nodes ~starts:[ target ] ~off:fz.Graph.f_bwd_off
      ~fin:fz.Graph.f_bwd_end ~adj:fz.Graph.f_bwd_src ~cost:fz.Graph.f_bwd_cost
      ~cone

  (* Weighted (mined) distances to the target, over the baked-in
     [f_bwd_wcost] — the backward rows carry no [edge], so the cost model
     must have been supplied at freeze time. *)
  let weighted_distances_to ?scratch ?cone fz ~target =
    let off = fz.Graph.f_bwd_off in
    let fin = fz.Graph.f_bwd_end in
    let adj = fz.Graph.f_bwd_src in
    let wcost = fz.Graph.f_bwd_wcost in
    let n = fz.Graph.f_nodes in
    let comp, cbits =
      match (cone : Reach.cone option) with
      | Some c -> (c.Reach.cone_comp, c.Reach.cone_bits)
      | None -> ([||], [||])
    in
    let pruned = Array.length comp > 0 in
    let lane = lane_of scratch n in
    dijkstra_into lane n ~starts:[ target ] ~next:(fun u f ->
        for k = off.{u} to fin.{u} - 1 do
          let v = adj.{k} in
          if (not pruned) || Reach.Bits.mem cbits comp.(v) then f wcost.(k) v
        done);
    dist_of lane

  let distances_from ?scratch ?cone fz ~sources =
    bfs ?scratch fz.Graph.f_nodes ~starts:sources ~off:fz.Graph.f_fwd_off
      ~fin:fz.Graph.f_fwd_end ~adj:fz.Graph.f_fwd_dst ~cost:fz.Graph.f_fwd_cost
      ~cone

  let shortest_cost ?scratch ?cone fz ~sources ~target =
    let sources =
      match cone with
      | None -> sources
      | Some c -> List.filter (Reach.cone_viable c) sources
    in
    if sources = [] then None
    else
      let dist = distances_from ?scratch ?cone fz ~sources in
      match Dist.get dist target with d when d < max_int -> Some d | _ -> None

  (* The DFS core: enumerate acyclic paths from [source] to [target] of cost
     at most [budget], pruning with the precomputed backward distances. The
     successor iteration is an index loop over the CSR row (in {!Graph.succs}
     order, which freeze preserves); the path accumulates edge {e indices}
     and resolves them through the cold [f_fwd_edge] table only when a
     complete path is materialized (the boxed edge records stay out of the
     search's cache lines), and the on-path marker is an epoch-stamped lane
     instead of an [Array.make n false] per enumeration. *)
  let dfs_from fz ~target ~(dist_to : Dist.t) ~(on_path : Scratch.lane) ~budget
      ~limit ~count ~results source =
    let off = fz.Graph.f_fwd_off in
    let fin = fz.Graph.f_fwd_end in
    let dst = fz.Graph.f_fwd_dst in
    let cost = fz.Graph.f_fwd_cost in
    let edge = fz.Graph.f_fwd_edge in
    let dd = dist_to.Dist.d
    and dstamp = dist_to.Dist.stamp
    and depoch = dist_to.Dist.epoch in
    let pstamp = on_path.Scratch.lstamp and pepoch = on_path.Scratch.lepoch in
    let rec dfs u ucost rev_ks =
      if !count < limit then begin
        if u = target && rev_ks <> [] && ucost > 0 then begin
          incr count;
          results :=
            { source; edges = List.rev_map (fun k -> edge.(k)) rev_ks } :: !results
        end;
        (* Even at the target, a 0-cost widening cycle cannot extend the
           path (acyclicity), so exploring further from the target is
           pointless: every continuation must eventually revisit it. *)
        if u <> target || rev_ks = [] then
          for k = off.{u} to fin.{u} - 1 do
            let v = dst.{k} in
            let c' = ucost + cost.{k} in
            let dv =
              if Array.unsafe_get dstamp v = depoch then Array.unsafe_get dd v
              else max_int
            in
            if pstamp.(v) <> pepoch && dv < max_int && c' + dv <= budget then begin
              pstamp.(v) <- pepoch;
              dfs v c' (k :: rev_ks);
              (* 0 is never a live epoch, so this unmarks unconditionally *)
              pstamp.(v) <- 0
            end
          done
      end
    in
    if Dist.get dist_to source < max_int then begin
      pstamp.(source) <- pepoch;
      dfs source 0 [];
      pstamp.(source) <- 0
    end

  let enumerate_per_source ?scratch fz ~sources ~target ?(slack = 1) ?(limit = 4096)
      ?cone ?truncated () =
    if target >= fz.Graph.f_nodes then []
    else
      let dist_to = distances_to ?scratch ?cone fz ~target in
      let n = fz.Graph.f_nodes in
      let on_path = lane_of scratch n in
      let results = ref [] in
      let count = ref 0 in
      List.iter
        (fun source ->
          if source < n && Dist.get dist_to source < max_int then
            dfs_from fz ~target ~dist_to ~on_path
              ~budget:(Dist.get dist_to source + slack)
              ~limit ~count ~results source)
        (List.sort_uniq compare sources);
      flag_truncated truncated ~count ~limit;
      List.rev !results
end

let distances_from g ~sources =
  let fz = Graph.freeze g in
  Dist.snapshot ~n:fz.Graph.f_nodes (Csr.distances_from fz ~sources)
