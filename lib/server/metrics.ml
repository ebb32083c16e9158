(* Log-linear latency buckets, in milliseconds. [Float.frexp] writes a
   sample as [m * 2^e] with [m] in [0.5, 1); the octave [2^(e-1), 2^e) is
   cut into [per_octave] equal slices, and slice [s] ends at
   [(per_octave + s + 1) * 2^e / (2 * per_octave)]. An end is at most
   [1 + 1/per_octave] times the slice's start, and every step is exact in
   binary floating point. Octaves [min_exp .. max_exp] span 2^-10 ms
   (~1 µs) to 2^22 ms (~70 min); bucket 0 takes everything faster (and any
   negative or NaN reading), the last bucket everything slower. *)
let per_octave = 8

let min_exp = -9

let max_exp = 22

let n_buckets = ((max_exp - min_exp + 1) * per_octave) + 2

let lowest_ms = ldexp 0.5 min_exp

let bucket_of_ms ms =
  if not (ms >= lowest_ms) then 0
  else
    let m, e = Float.frexp ms in
    if e > max_exp then n_buckets - 1
    else
      1 + ((e - min_exp) * per_octave)
      + int_of_float ((m -. 0.5) *. float_of_int (2 * per_octave))

(* The end of bucket [i]: no sample in it is above this. *)
let bucket_upper_ms i =
  if i = 0 then lowest_ms
  else if i = n_buckets - 1 then infinity
  else
    let e = min_exp + ((i - 1) / per_octave) and s = (i - 1) mod per_octave in
    ldexp (float_of_int (per_octave + s + 1) /. float_of_int (2 * per_octave)) e

type per_op = {
  mutable count : int;
  mutable errors : int;
  mutable sum_s : float;
  mutable max_s : float;
  buckets : int array;
}

type t = {
  mutex : Mutex.t;
  table : (string, per_op) Hashtbl.t;
  gauge_table : (string, int) Hashtbl.t;
  started_at : float;
}

let create () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 8;
    gauge_table = Hashtbl.create 4;
    started_at = Unix.gettimeofday ();
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let get_op t op =
  match Hashtbl.find_opt t.table op with
  | Some p -> p
  | None ->
      let p =
        { count = 0; errors = 0; sum_s = 0.0; max_s = 0.0; buckets = Array.make n_buckets 0 }
      in
      Hashtbl.add t.table op p;
      p

let record t ~op ~ok seconds =
  with_lock t (fun () ->
      let p = get_op t op in
      p.count <- p.count + 1;
      if not ok then p.errors <- p.errors + 1;
      p.sum_s <- p.sum_s +. seconds;
      if seconds > p.max_s then p.max_s <- seconds;
      let b = bucket_of_ms (seconds *. 1000.0) in
      p.buckets.(b) <- p.buckets.(b) + 1)

type op_stats = {
  count : int;
  errors : int;
  mean_ms : float;
  max_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

(* The end of the bucket holding the [ceil (q * count)]-th smallest sample,
   capped at the largest sample: never below that sample, and at most
   12.5% above it unless it lies outside the resolved octaves. *)
let percentile (p : per_op) q =
  if p.count = 0 then 0.0
  else begin
    let need = int_of_float (ceil (q *. float_of_int p.count)) in
    let need = max 1 need in
    let rec go i acc =
      let acc = acc + p.buckets.(i) in
      if acc >= need || i = n_buckets - 1 then bucket_upper_ms i
      else go (i + 1) acc
    in
    Float.min (go 0 0) (p.max_s *. 1000.0)
  end

let stats_of (p : per_op) =
  {
    count = p.count;
    errors = p.errors;
    mean_ms = (if p.count = 0 then 0.0 else p.sum_s *. 1000.0 /. float_of_int p.count);
    max_ms = p.max_s *. 1000.0;
    p50_ms = percentile p 0.50;
    p95_ms = percentile p 0.95;
    p99_ms = percentile p 0.99;
  }

let set_gauge t name v =
  with_lock t (fun () -> Hashtbl.replace t.gauge_table name v)

let gauges t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.gauge_table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let gauges_json t =
  Proto.Obj (List.map (fun (name, v) -> (name, Proto.Int v)) (gauges t))

let ops t =
  with_lock t (fun () ->
      Hashtbl.fold (fun op p acc -> (op, stats_of p) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let total_requests t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ (p : per_op) acc -> acc + p.count) t.table 0)

let uptime_s t = Unix.gettimeofday () -. t.started_at

let ops_json t =
  Proto.Obj
    (List.map
       (fun (op, s) ->
         ( op,
           Proto.Obj
             [
               ("count", Proto.Int s.count);
               ("errors", Proto.Int s.errors);
               ("mean_ms", Proto.Float s.mean_ms);
               ("max_ms", Proto.Float s.max_ms);
               ("p50_ms", Proto.Float s.p50_ms);
               ("p95_ms", Proto.Float s.p95_ms);
               ("p99_ms", Proto.Float s.p99_ms);
             ] ))
       (ops t))

let render t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "metrics: %d request(s) over %.1f s uptime\n" (total_requests t)
       (uptime_s t));
  List.iter
    (fun (op, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-10s %6d req  %4d err  mean %8.3f ms  p50 %8.3f  p95 %8.3f  p99 %8.3f  max %8.3f\n"
           op s.count s.errors s.mean_ms s.p50_ms s.p95_ms s.p99_ms s.max_ms))
    (ops t);
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "  gauge %s = %d\n" name v))
    (gauges t);
  Buffer.contents buf
