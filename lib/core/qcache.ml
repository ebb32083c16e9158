(* An exact LRU cache: a hash table into an intrusive doubly-linked recency
   list ([mru] end is most recent). Keys are any structurally hashable type
   (the engine uses flat key records, not rendered strings, so distinct
   queries can never collide by string concatenation). Every operation is
   O(1); the list pointers are options so no sentinel (and no Obj.magic) is
   needed. *)

type ('k, 'a) entry = {
  ekey : 'k;
  mutable value : 'a;
  mutable prev : ('k, 'a) entry option;  (* toward the MRU end *)
  mutable next : ('k, 'a) entry option;  (* toward the LRU end *)
}

type ('k, 'a) t = {
  capacity : int;
  tbl : ('k, ('k, 'a) entry) Hashtbl.t;
  mutable mru : ('k, 'a) entry option;
  mutable lru : ('k, 'a) entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type stats = {
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_invalidations : int;
  s_entries : int;
  s_capacity : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Qcache.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 1024);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.capacity

let length t = Hashtbl.length t.tbl

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_mru t e =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      unlink t e;
      push_mru t e;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = Hashtbl.mem t.tbl key

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some e ->
      unlink t e;
      Hashtbl.remove t.tbl e.ekey;
      t.evictions <- t.evictions + 1

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.value <- value;
      unlink t e;
      push_mru t e
  | None ->
      if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
      let e = { ekey = key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key e;
      push_mru t e

let find_or_add t key f =
  match find t key with
  | Some v -> v
  | None ->
      let v = f () in
      add t key v;
      v

let clear t =
  Hashtbl.reset t.tbl;
  t.mru <- None;
  t.lru <- None;
  t.invalidations <- t.invalidations + 1

let keys_mru_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some e -> go (e.ekey :: acc) e.next
  in
  go [] t.mru

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_evictions = t.evictions;
    s_invalidations = t.invalidations;
    s_entries = length t;
    s_capacity = t.capacity;
  }

let merge_stats a b =
  {
    s_hits = a.s_hits + b.s_hits;
    s_misses = a.s_misses + b.s_misses;
    s_evictions = a.s_evictions + b.s_evictions;
    s_invalidations = a.s_invalidations + b.s_invalidations;
    s_entries = a.s_entries + b.s_entries;
    s_capacity = a.s_capacity + b.s_capacity;
  }

let hit_rate s =
  let total = s.s_hits + s.s_misses in
  if total = 0 then 0.0 else float_of_int s.s_hits /. float_of_int total
