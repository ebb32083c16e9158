module Elem = Prospector.Elem

type t = {
  counts : (Elem.t, int) Hashtbl.t;
  pairs : (Elem.t * Elem.t, int) Hashtbl.t;
  total : int;
}

let empty = { counts = Hashtbl.create 1; pairs = Hashtbl.create 1; total = 0 }

let bump tbl key =
  let c = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  Hashtbl.replace tbl key (c + 1)

let of_examples examples =
  let counts = Hashtbl.create 256 in
  let pairs = Hashtbl.create 256 in
  let total = ref 0 in
  List.iter
    (fun (ex : Extract.example) ->
      let calls = List.filter (fun e -> not (Elem.is_widen e)) ex.Extract.elems in
      List.iter
        (fun e ->
          bump counts e;
          incr total)
        calls;
      let rec pairwise = function
        | a :: (b :: _ as rest) ->
            bump pairs (a, b);
            pairwise rest
        | [ _ ] | [] -> ()
      in
      pairwise calls)
    examples;
  { counts; pairs; total = !total }

let count t e = match Hashtbl.find_opt t.counts e with Some c -> c | None -> 0

let pair_count t a b =
  match Hashtbl.find_opt t.pairs (a, b) with Some c -> c | None -> 0

let total t = t.total

let distinct t = Hashtbl.length t.counts

(* cost = -log P normalized by the unseen-edge floor, in cost_scale
   fixed-point units: an edge the corpus never used costs exactly one paper
   unit (cost_scale), and seen edges are discounted in proportion to
   log-frequency. The normalization keeps mined costs commensurate with the
   paper's other charges (one unit per call, freevar_cost per free
   variable): without it, -log(1/denom) makes every unseen edge worth
   several paper units and chain length swamps the rest of the key. The
   float rounds through a 1/cost_scale grid, which absorbs any last-ulp
   libm variation far below the grid step. *)
let neg_log_p ~denom c = -.log (float_of_int (c + 1) /. float_of_int denom)

let denom t = t.total + Hashtbl.length t.counts + 1

let edge_cost t e =
  let denom = denom t in
  if Elem.is_widen e || denom <= 1 then 0
  else
    int_of_float
      (Float.round
         (float_of_int Elem.cost_scale
         *. neg_log_p ~denom (count t e)
         /. neg_log_p ~denom 0))

let floor_cost t = if denom t <= 1 then 0 else Elem.cost_scale
