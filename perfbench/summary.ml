(* The benchmark's arithmetic: percentiles with their sample counts,
   medians, open-loop latency and the capacity-ladder rule. Pure functions,
   pinned by test_perfbench.ml. (Repeated runs are summarised by median and
   quartiles in spread.py, with Python's statistics.quantiles.) *)

(* ---------- percentiles ---------- *)

(* Percentiles are named in per mille (990 = p99) so the rank arithmetic is
   exact integer arithmetic. Nearest rank: the smallest sample with at
   least [per_mille]/1000 of the samples at or below it. *)
let rank ~n ~per_mille = max 0 (((per_mille * n) + 999) / 1000 - 1)

(* Samples strictly above the percentile's rank. *)
let beyond ~n ~per_mille = n - 1 - rank ~n ~per_mille

(* A percentile is only reported when at least this many samples lie
   beyond it; with fewer it is a relabelled maximum. *)
let min_beyond = 10

type pct = {
  per_mille : int;
  value : float;
  n : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples above it *)
}

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile ~per_mille xs =
  let n = Array.length xs in
  if n = 0 || beyond ~n ~per_mille < min_beyond then None
  else
    Some
      {
        per_mille;
        value = (sorted xs).(rank ~n ~per_mille);
        n;
        beyond = beyond ~n ~per_mille;
      }

let pct_name per_mille =
  if per_mille mod 10 = 0 then Printf.sprintf "p%d" (per_mille / 10)
  else Printf.sprintf "p%.1f" (float_of_int per_mille /. 10.)

(* "p99 = 1.234 ms (n=1200, 11 beyond)" *)
let pct_to_string p =
  Printf.sprintf "%s = %.4f ms (n=%d, %d beyond)" (pct_name p.per_mille) p.value p.n
    p.beyond

(* Median, averaging the middle pair of an even count. *)
let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* ---------- open-loop latency ---------- *)

(* One open-loop request. Latency counts from [due], the time the schedule
   said to send it, not from [sent]: when a stall holds the generator or the
   connection back, every request queued behind it is charged the wait. *)
type sample = {
  due : float;
  sent : float;
  received : float;  (** [nan] when no reply arrived *)
  ok : bool;  (** reply arrived and passed its check *)
}

let latency_ms s = if s.ok then (s.received -. s.due) *. 1000. else infinity

let lateness_ms s = (s.sent -. s.due) *. 1000.

(* ---------- the capacity ladder ---------- *)

(* A rung of the open-loop ladder: the offered rate and each request's
   latency in due order ([infinity] for a failed request — a failure misses
   every latency limit). *)
type rung = { rate : float; lats : float array }

type verdict = {
  rung : rung;
  p99 : pct option;
  backlog : bool;
  pass : bool;
}

(* A backlog grows when latency climbs across the rung: the median of its
   last third exceeds the median of its first third by more than half the
   latency limit. Under a sustainable rate both thirds see the same queue. *)
let backlog_grows ~limit_ms lats =
  let n = Array.length lats in
  if n < 3 then false
  else
    let third = n / 3 in
    let first = median (Array.sub lats 0 third)
    and last = median (Array.sub lats (n - third) third) in
    last -. first > limit_ms /. 2.

let judge ~limit_ms rung =
  let p99 = percentile ~per_mille:990 rung.lats in
  let backlog = backlog_grows ~limit_ms rung.lats in
  let pass =
    match p99 with Some p -> p.value <= limit_ms && not backlog | None -> false
  in
  { rung; p99; backlog; pass }

(* The highest offered rate that meets the limit, walking the ladder upward
   and stopping at the first rung that fails (a higher rung that happens to
   pass after a failure does not count). [None] when the first rung fails. *)
let max_rps ~limit_ms rungs =
  let rec walk best = function
    | [] -> best
    | r :: rest ->
        if (judge ~limit_ms r).pass then walk (Some r.rate) rest else best
  in
  walk None (List.sort (fun a b -> Float.compare a.rate b.rate) rungs)
