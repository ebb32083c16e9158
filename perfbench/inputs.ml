(* Seeded inputs. Everything a run feeds the program — the API world as
   [.japi] text, query pairs, NDJSON request lines, their due times and the
   reload deltas — is made here from the seed alone. The program never sees
   this module: it receives only the text. *)

module Rng = Corpusgen.Rng
module Proto = Prospector_server.Proto
module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname
module Decl = Javamodel.Decl
module Member = Javamodel.Member
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Reach = Prospector.Reach

(* Independent streams per purpose, so adding draws to one (say, more
   deltas) never shifts another (the arrival times). *)
let stream ~seed k = Rng.create ~seed:((seed * 1_000_003) + k)

(* ---------- distributions ---------- *)

(* Zipf over ranks [0, n): P(rank k) proportional to 1/(k+1)^s. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Rng.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Poisson arrivals at [rate] per second over [duration] seconds: offsets
   from the phase start. *)
let poisson ~rate ~duration rng =
  let acc = ref [] and t = ref 0. in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1. -. Rng.float rng 1.) /. rate);
    if !t < duration then acc := !t :: !acc else continue := false
  done;
  Array.of_list (List.rev !acc)

(* ---------- read requests ---------- *)

type read =
  | Query of { tin : string; tout : string }
  | Assist of { tout : string; vars : (string * string) list }

let read_json ~id = function
  | Query { tin; tout } ->
      Proto.Obj
        [ ("op", Proto.Str "query"); ("id", Proto.Int id); ("tin", Proto.Str tin);
          ("tout", Proto.Str tout) ]
  | Assist { tout; vars } ->
      Proto.Obj
        [
          ("op", Proto.Str "assist");
          ("id", Proto.Int id);
          ("tout", Proto.Str tout);
          ( "vars",
            Proto.Arr
              (List.map
                 (fun (n, ty) ->
                   Proto.Obj [ ("name", Proto.Str n); ("type", Proto.Str ty) ])
                 vars) );
        ]

let read_line ~id r = Proto.to_string (read_json ~id r)

(* Reference-typed nodes of a graph — the types pairs are drawn from. *)
let ref_nodes g =
  Array.of_list
    (List.filter_map
       (fun (ty, n) -> match ty with Jtype.Ref _ -> Some (ty, n) | _ -> None)
       (Graph.real_nodes g))

(* Distinct reads: [fixed] pairs first, then about one in ten assist
   requests with 1-3 visible variables, about one in five unsolvable pairs
   (both types known, no path — the reach index's O(1) rejects), and
   solvable pairs for the rest. Sampling probes the reach index, O(1) per
   draw. Targets are drawn only from nodes [target_ok] accepts. *)
let distinct_reads ?(target_ok = fun _ -> true) rng ~g ~reach ~fixed ~count =
  let nodes = ref_nodes g in
  let pick () = nodes.(Rng.int rng (Array.length nodes)) in
  let name (ty, _) = Jtype.to_string ty in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] and n = ref 0 in
  let add r =
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.replace seen r ();
      out := r :: !out;
      incr n
    end
  in
  List.iter (fun (tin, tout) -> add (Query { tin; tout })) fixed;
  let n_assist = count / 10 and n_unsolvable = count / 5 in
  let draw ~solvable =
    let rec go () =
      let ((_, si) as a) = pick () and ((_, di) as b) = pick () in
      if si <> di && target_ok di && Reach.mem reach ~src:si ~target:di = solvable then (a, b)
      else go ()
    in
    go ()
  in
  let target = !n + n_assist in
  while !n < target do
    let a, b = draw ~solvable:true in
    let extra = List.init (Rng.int rng 3) (fun _ -> pick ()) in
    add
      (Assist
         {
           tout = name b;
           vars = List.mapi (fun i v -> (Printf.sprintf "v%d" (i + 1), name v)) (a :: extra);
         })
  done;
  let target = !n + n_unsolvable in
  while !n < target do
    let a, b = draw ~solvable:false in
    add (Query { tin = name a; tout = name b })
  done;
  while !n < count do
    let a, b = draw ~solvable:true in
    add (Query { tin = name a; tout = name b })
  done;
  Array.of_list (List.rev !out)

(* ---------- open-loop schedules ---------- *)

type arrival = {
  due : float;  (** seconds from the phase start *)
  lane : int;  (** which pool of client connections sends it *)
  line : string;  (** the NDJSON request *)
  read : int;  (** index into the distinct reads, or -1 for a reload *)
  delta : int;  (** index into the deltas, or -1 for a read *)
}

type phase = {
  label : string;
  rate : float;  (** offered read rate, requests per second *)
  duration : float;
  measured : bool;  (** false for warm-up *)
  arrivals : arrival array;  (** in due order *)
}

(* Zipf-skewed reads at [rate] on [lane]. Popularity ranks map to reads
   through [perm]. *)
let read_arrivals rng ~cdf ~perm ~reads ~rate ~duration ~lane ~first_id =
  let times = poisson ~rate ~duration rng in
  Array.mapi
    (fun i due ->
      let r = perm.(zipf_draw cdf rng) in
      {
        due;
        lane;
        line = read_line ~id:(first_id + i) reads.(r);
        read = r;
        delta = -1;
      })
    times

let merge_by_due a b =
  let all = Array.append a b in
  Array.stable_sort (fun x y -> Float.compare x.due y.due) all;
  all

(* ---------- worlds ---------- *)

(* The generated world as the program receives it: one [.japi] text per
   package. *)
let world_files ~seed ~methods =
  Japi.Printer.print_files (Corpusgen.Apigen.mega ~seed ~methods ())

(* ---------- reload deltas ---------- *)

type delta = {
  japi : string;  (** the inline [.japi] text of the reload request *)
  structural : bool;  (** adds a class, so the server rebuilds *)
}

let delta_line ~id d =
  Proto.to_string
    (Proto.Obj
       [ ("op", Proto.Str "reload"); ("id", Proto.Int id); ("japi", Proto.Str d.japi) ])

let decl_text (d : Decl.t) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "package %s;\n\n" (Qname.package_string d.Decl.dname));
  Japi.Printer.print_decl b d;
  Buffer.contents b

(* Where reloads edit: the types of one package, chosen so that everything
   they reach stays within [max_share] of the graph. Returns the region's
   nodes and a predicate for nodes outside what it reaches — the only nodes
   reads may target. *)
let edit_region rng g ~max_share =
  let by_pkg = Hashtbl.create 64 in
  Array.iter
    (fun ((ty, _) as tn) ->
      match ty with
      | Jtype.Ref q ->
          let p = Qname.package_string q in
          Hashtbl.replace by_pkg p (tn :: Option.value (Hashtbl.find_opt by_pkg p) ~default:[])
      | _ -> ())
    (ref_nodes g);
  let pkgs = Array.of_list (List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) by_pkg [])) in
  let limit = int_of_float (max_share *. float_of_int (Graph.node_count g)) in
  let rec try_ k =
    if k = 0 then failwith "no package reaches little enough of the graph to edit";
    let region = Hashtbl.find by_pkg pkgs.(Rng.int rng (Array.length pkgs)) in
    let dist = Prospector.Search.distances_from g ~sources:(List.map snd region) in
    let reached = Array.fold_left (fun a d -> if d < max_int then a + 1 else a) 0 dist in
    if reached <= limit then (region, fun n -> n >= Array.length dist || dist.(n) = max_int)
    else try_ (k - 1)
  in
  try_ 1000

(* A delta sequence that never changes a read's answer, so every read can be
   checked against one oracle whatever generation served it. Reads target
   only types the edit region cannot reach ({!edit_region}), and every added
   method returns a type of the region, so no new edge lies on a path to a
   read target and the targets' cones never grow. Three deltas in four are
   body-only edits of an existing class (add such a method, or drop one
   added earlier): the row-spliced path. Every fourth adds a new interface
   nothing produces: the rebuild path. *)
let deltas rng ~hierarchy ~g ~region ~count =
  let nodes = ref_nodes g in
  let sinks = Array.of_list (List.map fst region) in
  let editable =
    Array.of_list
      (List.filter
         (fun (d : Decl.t) ->
           (not d.Decl.synthetic) && not (Qname.equal d.Decl.dname Qname.object_qname))
         (Hierarchy.decls hierarchy))
  in
  let current = Hashtbl.create 64 in
  let added = ref [] in
  let perf m = String.length m.Member.mname > 4 && String.sub m.Member.mname 0 4 = "perf" in
  let one k =
    let sink = sinks.(Rng.int rng (Array.length sinks)) in
    if k mod 4 = 3 then begin
      let host = editable.(Rng.int rng (Array.length editable)) in
      let q =
        Qname.make ~pkg:(Qname.package host.Decl.dname) (Printf.sprintf "PerfAdd%d" k)
      in
      let d =
        Decl.make ~kind:Decl.Interface
          ~methods:[ Member.meth (Printf.sprintf "perfGet%d" k) ~params:[] ~ret:sink ]
          q
      in
      added := d :: !added;
      { japi = decl_text d; structural = true }
    end
    else begin
      let base = editable.(Rng.int rng (Array.length editable)) in
      let key = Qname.to_string base.Decl.dname in
      let cur = Option.value (Hashtbl.find_opt current key) ~default:base in
      let mine = List.filter perf cur.Decl.methods in
      let methods =
        if mine <> [] && Rng.bool rng 0.5 then
          let drop = List.nth mine (List.length mine - 1) in
          List.filter (fun m -> m != drop) cur.Decl.methods
        else
          let params =
            if Rng.bool rng 0.5 then []
            else [ ("arg0", fst nodes.(Rng.int rng (Array.length nodes))) ]
          in
          cur.Decl.methods
          @ [ Member.meth (Printf.sprintf "perf%d" k) ~params ~ret:sink ]
      in
      let d = { cur with Decl.methods } in
      Hashtbl.replace current key d;
      { japi = decl_text d; structural = false }
    end
  in
  let ds = Array.init count one in
  (* The world after every delta, for the final-state oracle. *)
  let final = Hierarchy.copy hierarchy in
  Hashtbl.iter (fun _ d -> Hierarchy.replace final d) current;
  List.iter (Hierarchy.add final) (List.rev !added);
  (ds, Japi.Printer.print_files final)

(* ---------- the three input sets ---------- *)

(* Bundled-model daemon traffic. *)
type ide = {
  ide_reads : read array;
  ide_phases : phase list;  (** warm-up, the fixed-rate phase, ladder rungs *)
}

(* Batch traffic over a generated world. *)
type batch = {
  b_world : (string * string) list;
  b_queries : (string * string) array;  (** all distinct *)
  b_sample : int array;  (** indices checked against the oracle *)
}

(* Reads beside reloads over a generated world. *)
type reload = {
  r_world : (string * string) list;
  r_reads : read array;
  r_deltas : delta array;
  r_phases : phase list;  (** warm-up (reads only), then reads + reloads *)
  r_final : (string * string) list;  (** the world after every delta *)
}
