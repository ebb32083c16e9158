(* In-memory spans for the traced run. A span is recorded around each call
   the benchmark makes into one of the program's public functions: name,
   start, end, the enclosing span, and the request it served. Nothing is
   written until the run ends; the recorder keeps flat arrays so a run of a
   few hundred thousand spans stays cheap. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;  (** -1 for a root *)
  mutable rid : int array;
  mutable open_ : int list;  (** open spans, innermost first *)
  mutable request : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    rid = Array.make cap (-1);
    open_ = [];
    request = -1;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent (-1);
  t.rid <- extend t.rid (-1)

(* Spans opened from now on belong to request [rid]. *)
let set_request t rid = t.request <- rid

let span t name f =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.rid.(i) <- t.request;
  t.open_ <- i :: t.open_;
  let close () =
    t.stop.(i) <- Clock.now ();
    t.open_ <- List.tl t.open_
  in
  t.start.(i) <- Clock.now ();
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

let length t = t.n

(* Union length of the intervals of [kids] (spans of one parent), clipped to
   [lo, hi]. Kids are single-threaded and so never overlap in practice; the
   union keeps the arithmetic right even if they did. *)
let covered ~start ~stop ~lo ~hi kids =
  let iv =
    List.sort compare
      (List.map (fun k -> (Float.max lo start.(k), Float.min hi stop.(k))) kids)
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity) iv
  in
  total

let children ~parent n =
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

(* Self time of each span: its duration minus the part of it its child
   spans cover. *)
let self_times ~start ~stop ~parent n =
  let kids = children ~parent n in
  Array.init n (fun i ->
      let d = stop.(i) -. start.(i) in
      d -. covered ~start ~stop ~lo:start.(i) ~hi:stop.(i) kids.(i))

type total = {
  count : int;
  dur : float;  (** summed duration, seconds *)
  self : float;  (** summed self time, seconds *)
}

(* Per span name: how often, how long, how much of it its own. *)
let totals t =
  let self = self_times ~start:t.start ~stop:t.stop ~parent:t.parent t.n in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let c =
      Option.value (Hashtbl.find_opt tbl t.name.(i))
        ~default:{ count = 0; dur = 0.; self = 0. }
    in
    Hashtbl.replace tbl t.name.(i)
      {
        count = c.count + 1;
        dur = c.dur +. (t.stop.(i) -. t.start.(i));
        self = c.self +. self.(i);
      }
  done;
  tbl

(* Over the roots named [root]: summed duration, and the part of it their
   direct children cover — the share of end-to-end time the layer spans
   account for. *)
let coverage t ~root =
  let kids = children ~parent:t.parent t.n in
  let whole = ref 0. and inside = ref 0. in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 && t.name.(i) = root then begin
      whole := !whole +. (t.stop.(i) -. t.start.(i));
      inside :=
        !inside
        +. covered ~start:t.start ~stop:t.stop ~lo:t.start.(i) ~hi:t.stop.(i)
             kids.(i)
    end
  done;
  (!whole, !inside)

(* One tab-separated line per span: id, name, parent, request, start and
   end in microseconds from the first span. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  output_string oc "id\tname\tparent\trequest\tstart_us\tend_us\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.3f\t%.3f\n" i t.name.(i) t.parent.(i)
      t.rid.(i)
      ((t.start.(i) -. t0) *. 1e6)
      ((t.stop.(i) -. t0) *. 1e6)
  done;
  close_out oc

(* Time span [i]'s direct children cover (they follow it in recording
   order and never overlap, since spans nest). *)
let children_time t i =
  let acc = ref 0. and j = ref (i + 1) in
  while !j < t.n && t.start.(!j) < t.stop.(i) do
    if t.parent.(!j) = i then acc := !acc +. (t.stop.(!j) -. t.start.(!j));
    incr j
  done;
  !acc

let duration t i = t.stop.(i) -. t.start.(i)
