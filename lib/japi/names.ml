module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype

(* Two open-addressing tables whose slots hold ids (or -1) and whose keys
   live in the id-indexed lanes: an identifier's text in [idents], a path's
   (prefix, last identifier) in [prefix] and [last]. A probe reads the key
   back through the id, so neither table stores or allocates a key. *)
type t = {
  mutable idents : string array;
  mutable n_idents : int;
  mutable ident_slots : int array;
  mutable prefix : int array;
  mutable last : int array;
  mutable n_paths : int;
  mutable path_slots : int array;
  mutable comps : string list array;  (* [] until asked for *)
  mutable refs : Jtype.t array;  (* [Void] until asked for *)
}

let root = -1

let create () =
  {
    idents = Array.make 64 "";
    n_idents = 0;
    ident_slots = Array.make 128 (-1);
    prefix = Array.make 64 root;
    last = Array.make 64 0;
    n_paths = 0;
    path_slots = Array.make 128 (-1);
    comps = Array.make 64 [];
    refs = Array.make 64 Jtype.Void;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* FNV-1a over the bytes, folded so the low bits see the high ones. *)
let hash_sub s pos len =
  let h = ref 0x0bf29ce484222325 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let hash_pair a b =
  let h = ((a + 1) * 0x1e3779b97f4a7c15) lxor b in
  let h = h * 0x3f51afd7ed558ccd in
  h lxor (h lsr 29)

let rec equal_from w s pos len i =
  i = len || (w.[i] = s.[pos + i] && equal_from w s pos len (i + 1))

(* The free slot for a new key, in a table with room for it. *)
let rec free_slot slots i =
  if slots.(i) < 0 then i else free_slot slots ((i + 1) land (Array.length slots - 1))

let rehash_idents t =
  let slots = Array.make (2 * Array.length t.ident_slots) (-1) in
  for id = 0 to t.n_idents - 1 do
    let w = t.idents.(id) in
    let h = hash_sub w 0 (String.length w) land (Array.length slots - 1) in
    slots.(free_slot slots h) <- id
  done;
  t.ident_slots <- slots

(* The probe loops are top-level functions, not closures, so a lookup
   allocates nothing. *)
let rec ident_sub t s pos len = probe_ident t s pos len (hash_sub s pos len)

and probe_ident t s pos len i =
  let slots = t.ident_slots in
  let i = i land (Array.length slots - 1) in
  let id = slots.(i) in
  if id < 0 then
    if 2 * (t.n_idents + 1) > Array.length slots then begin
      rehash_idents t;
      ident_sub t s pos len
    end
    else begin
      let id = t.n_idents in
      if id = Array.length t.idents then t.idents <- grow t.idents "";
      t.idents.(id) <- String.sub s pos len;
      t.n_idents <- id + 1;
      slots.(i) <- id;
      id
    end
  else
    let w = t.idents.(id) in
    if String.length w = len && equal_from w s pos len 0 then id
    else probe_ident t s pos len (i + 1)

let intern t s = ident_sub t s 0 (String.length s)

let ident t id = t.idents.(id)

let ident_count t = t.n_idents

let rehash_paths t =
  let slots = Array.make (2 * Array.length t.path_slots) (-1) in
  for p = 0 to t.n_paths - 1 do
    let h = hash_pair t.prefix.(p) t.last.(p) land (Array.length slots - 1) in
    slots.(free_slot slots h) <- p
  done;
  t.path_slots <- slots

let rec path t ~prefix x = probe_path t prefix x (hash_pair prefix x)

and probe_path t prefix x i =
  let slots = t.path_slots in
  let i = i land (Array.length slots - 1) in
  let p = slots.(i) in
  if p < 0 then
    if 2 * (t.n_paths + 1) > Array.length slots then begin
      rehash_paths t;
      path t ~prefix x
    end
    else begin
      let p = t.n_paths in
      if p = Array.length t.prefix then begin
        t.prefix <- grow t.prefix root;
        t.last <- grow t.last 0;
        t.comps <- grow t.comps [];
        t.refs <- grow t.refs Jtype.Void
      end;
      t.prefix.(p) <- prefix;
      t.last.(p) <- x;
      t.n_paths <- p + 1;
      slots.(i) <- p;
      p
    end
  else if t.prefix.(p) = prefix && t.last.(p) = x then p
  else probe_path t prefix x (i + 1)

let path_of_string t s =
  List.fold_left (fun prefix w -> path t ~prefix (intern t w)) root (String.split_on_char '.' s)

let prefix t p = t.prefix.(p)

let last t p = t.last.(p)

let rec components t p =
  match t.comps.(p) with
  | [] ->
      let above = if t.prefix.(p) = root then [] else components t t.prefix.(p) in
      let c = above @ [ t.idents.(t.last.(p)) ] in
      t.comps.(p) <- c;
      c
  | c -> c

let ref_type t p =
  match t.refs.(p) with
  | Jtype.Void ->
      let pkg = if t.prefix.(p) = root then [] else components t t.prefix.(p) in
      let r = Jtype.Ref (Qname.make ~pkg t.idents.(t.last.(p))) in
      t.refs.(p) <- r;
      r
  | r -> r

let qname t p =
  match ref_type t p with Jtype.Ref q -> q | _ -> invalid_arg "Names.qname"
