exception Unknown_type of Qname.t

exception Duplicate_decl of Qname.t

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* The decl table is persistent — two balanced maps sharing the decl
   values — behind a mutable record: [copy] shares the maps and every
   structural update is O(log n), which is what keeps a live-reload
   delta's working copy ([Delta.apply]) independent of model size.
   [byname] resolves names; [bystamp] fixes the iteration order: each name
   keeps the insertion stamp it got when first declared, and [replace]
   reuses the old stamp, so iteration order — and every node id derived
   from it downstream — is preserved across body edits.

   The two memos depend only on each declaration's kind and supertype
   clauses ([direct_supers]), so a [replace] that keeps those keeps them
   too. So does an [add] of a name no depth was memoized for ([add]
   explains why); every other mutation drops both, since one class's depth
   feeds the depths of all its subtypes. *)
type t = {
  mutable seq : int;  (* next insertion stamp *)
  mutable count : int;
  mutable byname : (int * Decl.t) Smap.t;
  mutable bystamp : Decl.t Imap.t;
  mutable reverse : Qname.Set.t Qname.Map.t option;
      (* lazy strict-direct-subtype index, invalidated on mutation;
         immutable once built, so copies share it *)
  mutable depth_cache : (string, int) Hashtbl.t;
      (* memo table, never shared between copies (it mutates on reads):
         [copy] copies it, and mutations install a fresh table rather than
         resetting, so a copy holding the old one keeps its still-valid
         entries *)
  mutable warmed : bool;  (* both memos complete; cleared by [invalidate] *)
}

let key q = Qname.to_string q

let insert t (d : Decl.t) =
  let stamp = t.seq in
  t.seq <- t.seq + 1;
  t.byname <- Smap.add (key d.dname) (stamp, d) t.byname;
  t.bystamp <- Imap.add stamp d t.bystamp;
  t.count <- t.count + 1

let invalidate t =
  t.reverse <- None;
  t.depth_cache <- Hashtbl.create 64;
  t.warmed <- false

let create () =
  let t =
    {
      seq = 0;
      count = 0;
      byname = Smap.empty;
      bystamp = Imap.empty;
      reverse = None;
      depth_cache = Hashtbl.create 64;
      warmed = false;
    }
  in
  insert t (Decl.make Qname.object_qname);
  t

let copy t = { t with depth_cache = Hashtbl.copy t.depth_cache }

let find_opt t q =
  match Smap.find_opt (key q) t.byname with
  | Some (_, d) -> Some d
  | None -> None

let find t q = match find_opt t q with Some d -> d | None -> raise (Unknown_type q)

let mem t q = Smap.mem (key q) t.byname

let size t = t.count

let direct_supers t q =
  if Qname.equal q Qname.object_qname then []
  else
    match find_opt t q with
    | None -> [ Qname.object_qname ]
    | Some d -> (
        match d.kind with
        | Decl.Interface ->
            (* Interface values widen to Object even without declared supers. *)
            if d.extends = [] then [ Qname.object_qname ] else d.extends
        | Decl.Class ->
            let super =
              match d.extends with [] -> [ Qname.object_qname ] | es -> es
            in
            super @ d.implements)

(* The reverse index [r] with [q] filed under each of its direct supers.
   Persistent: a copy sharing [r] keeps it. *)
let index_supers t r q =
  List.fold_left
    (fun r sup ->
      let cur = Option.value ~default:Qname.Set.empty (Qname.Map.find_opt sup r) in
      Qname.Map.add sup (Qname.Set.add q cur) r)
    r (direct_supers t q)

let depth t q =
  (* [visiting] breaks inheritance cycles in malformed inputs; the japi
     loader rejects them earlier, but depth must still terminate. *)
  let rec go visiting q =
    match Hashtbl.find_opt t.depth_cache (key q) with
    | Some d -> d
    | None ->
        if Qname.Set.mem q visiting then 0
        else
          let visiting = Qname.Set.add q visiting in
          let d =
            match direct_supers t q with
            | [] -> 0
            | supers -> 1 + List.fold_left (fun m s -> max m (go visiting s)) 0 supers
          in
          Hashtbl.replace t.depth_cache (key q) d;
          d
  in
  go Qname.Set.empty q

(* [depth] memoizes every name it visits, declared or not, so a name with
   no depth entry fed no memoized depth while it was undeclared: declaring
   it changes no entry. The reverse index only gains the name under its
   own direct supers. A warm hierarchy memoizes the new depth at once, so
   it stays warm and readers never write. A name that has an entry (some
   depth was read while it was undeclared) drops both memos. *)
let add t (d : Decl.t) =
  if mem t d.dname then raise (Duplicate_decl d.dname);
  insert t d;
  if Hashtbl.mem t.depth_cache (key d.dname) then invalidate t
  else begin
    Option.iter (fun r -> t.reverse <- Some (index_supers t r d.dname)) t.reverse;
    if t.warmed then ignore (depth t d.dname)
  end

let same_supers (a : Decl.t) (b : Decl.t) =
  a.kind = b.kind
  && List.equal Qname.equal a.extends b.extends
  && List.equal Qname.equal a.implements b.implements

let replace t (d : Decl.t) =
  match Smap.find_opt (key d.dname) t.byname with
  | None -> raise (Unknown_type d.dname)
  | Some (stamp, old) ->
      t.byname <- Smap.add (key d.dname) (stamp, d) t.byname;
      t.bystamp <- Imap.add stamp d t.bystamp;
      if not (same_supers old d) then invalidate t

let remove t q =
  if Qname.equal q Qname.object_qname then
    invalid_arg "Hierarchy.remove: java.lang.Object is not removable";
  match Smap.find_opt (key q) t.byname with
  | None -> raise (Unknown_type q)
  | Some (stamp, _) ->
      t.byname <- Smap.remove (key q) t.byname;
      t.bystamp <- Imap.remove stamp t.bystamp;
      t.count <- t.count - 1;
      invalidate t

let iter t f = Imap.iter (fun _ d -> f d) t.bystamp

let fold t ~init ~f = Imap.fold (fun _ d acc -> f acc d) t.bystamp init

let decls t =
  fold t ~init:[] ~f:(fun acc d -> d :: acc)
  |> List.sort (fun (a : Decl.t) (b : Decl.t) -> Qname.compare a.dname b.dname)

(* Every type name a declaration mentions, with repeats, unwrapping arrays. *)
let iter_referenced (d : Decl.t) f =
  let rec ty = function
    | Jtype.Ref q -> f q
    | Jtype.Array el -> ty el
    | Jtype.Prim _ | Jtype.Void -> ()
  in
  let params = List.iter (fun (_, t) -> ty t) in
  List.iter f d.extends;
  List.iter f d.implements;
  List.iter (fun (fd : Member.field) -> ty fd.ftype) d.fields;
  List.iter
    (fun (m : Member.meth) ->
      ty m.ret;
      params m.params)
    d.methods;
  List.iter (fun (c : Member.ctor) -> params c.cparams) d.ctors

let referenced_qnames d =
  let acc = ref Qname.Set.empty in
  iter_referenced d (fun q -> acc := Qname.Set.add q !acc);
  !acc

(* Placeholders for every name the declarations [each] visits mention but
   the table lacks. Fixpoint is unnecessary: opaque decls reference only
   Object. Each name is looked up once; the placeholders go in in
   [Qname.compare] order, since their insertion stamps fix node ids
   downstream, and through [add], which keeps the memos when it can. *)
let close t each =
  let seen = Hashtbl.create 64 in
  let missing = ref [] in
  each (fun d ->
      iter_referenced d (fun q ->
          if not (Hashtbl.mem seen (key q)) then begin
            Hashtbl.add seen (key q) ();
            if not (mem t q) then missing := q :: !missing
          end));
  List.iter (fun q -> add t (Decl.opaque q)) (List.sort Qname.compare !missing)

let ensure_closed t = close t (iter t)

let close_over t ds = close t (fun f -> List.iter f ds)

(* [insert], unlike [add], leaves the memos alone: a new hierarchy's are
   empty, and nothing reads them before it is returned. *)
let of_decls ds =
  let t = create () in
  List.iter
    (fun (d : Decl.t) ->
      if Qname.equal d.dname Qname.object_qname then
        (* Allow the data set to re-declare Object with real members. *)
        replace t d
      else if mem t d.dname then raise (Duplicate_decl d.dname)
      else insert t d)
    ds;
  ensure_closed t;
  t

let supers t q =
  let rec go seen q =
    List.fold_left
      (fun seen s ->
        if Qname.Set.mem s seen then seen else go (Qname.Set.add s seen) s)
      seen (direct_supers t q)
  in
  go Qname.Set.empty q

let is_subclass t sub sup =
  Qname.equal sub sup
  || Qname.equal sup Qname.object_qname
  || Qname.Set.mem sup (supers t sub)

let rec is_subtype t sub sup =
  match (sub, sup) with
  | Jtype.Ref a, Jtype.Ref b -> is_subclass t a b
  | Jtype.Array _, Jtype.Ref b -> Qname.equal b Qname.object_qname
  | Jtype.Array a, Jtype.Array b ->
      Jtype.equal a b
      || (Jtype.is_reference a && Jtype.is_reference b && is_subtype t a b)
  | Jtype.Prim a, Jtype.Prim b -> a = b
  | Jtype.Void, Jtype.Void -> true
  | (Jtype.Ref _ | Jtype.Prim _ | Jtype.Void), _ | Jtype.Array _, _ -> false

let reverse_index t =
  match t.reverse with
  | Some r -> r
  | None ->
      let r =
        fold t ~init:Qname.Map.empty ~f:(fun r (d : Decl.t) -> index_supers t r d.dname)
      in
      t.reverse <- Some r;
      r

let subtypes t q =
  let r = reverse_index t in
  let direct sup = Option.value ~default:Qname.Set.empty (Qname.Map.find_opt sup r) in
  let rec go seen q =
    Qname.Set.fold
      (fun s seen ->
        if Qname.Set.mem s seen then seen else go (Qname.Set.add s seen) s)
      (direct q) seen
  in
  go Qname.Set.empty q

(* Force both lazy memos (the reverse subtype index and the depth cache) while
   the caller still holds sole ownership. The memos mutate on first use, so a
   hierarchy shared read-only across domains must be warmed first; after
   [warm], [subtypes] and [depth] only read. Once warm, nothing is left to
   force until the next invalidation. *)
let warm t =
  if not t.warmed then begin
    ignore (reverse_index t);
    iter t (fun (d : Decl.t) -> ignore (depth t d.dname));
    t.warmed <- true
  end

let matching_meth (d : Decl.t) name ~arity =
  List.find_opt
    (fun (m : Member.meth) ->
      String.equal m.mname name && List.length m.params = arity)
    d.methods

let lookup_method t q name ~arity =
  let rec go visited q =
    if Qname.Set.mem q visited then (visited, None)
    else
      let visited = Qname.Set.add q visited in
      match find_opt t q with
      | None -> (visited, None)
      | Some d -> (
          match matching_meth d name ~arity with
          | Some m -> (visited, Some (q, m))
          | None ->
              List.fold_left
                (fun (visited, found) sup ->
                  match found with
                  | Some _ -> (visited, found)
                  | None -> go visited sup)
                (visited, None) (direct_supers t q))
  in
  snd (go Qname.Set.empty q)

let lookup_field t q name =
  let rec go visited q =
    if Qname.Set.mem q visited then (visited, None)
    else
      let visited = Qname.Set.add q visited in
      match find_opt t q with
      | None -> (visited, None)
      | Some d -> (
          match
            List.find_opt (fun (f : Member.field) -> String.equal f.fname name) d.fields
          with
          | Some f -> (visited, Some (q, f))
          | None ->
              List.fold_left
                (fun (visited, found) sup ->
                  match found with
                  | Some _ -> (visited, found)
                  | None -> go visited sup)
                (visited, None) (direct_supers t q))
  in
  snd (go Qname.Set.empty q)

let dispatch_targets t recv name ~arity =
  let candidates = Qname.Set.add recv (subtypes t recv) in
  Qname.Set.fold
    (fun q acc ->
      match find_opt t q with
      | None -> acc
      | Some d -> (
          match matching_meth d name ~arity with
          | Some m -> (q, m) :: acc
          | None -> acc))
    candidates []
  |> List.sort (fun (a, _) (b, _) -> Qname.compare a b)
