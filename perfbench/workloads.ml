(* The timed runs: set the program up five times, drive it with the seeded
   inputs, check every reply outside the timed region, and report.

   The metrics on the result line are the ones that hold still on a shared
   two-vCPU machine: CPU time (set-up, and per request) and peak memory.
   Wall-clock latencies, rates and the capacity ladder are printed beside
   them, by name, with their sample counts. Parameters that shape a
   workload are constants here, so a result names everything it depends on
   except the seed and the run length. *)

module Query = Prospector.Query
module Graph = Prospector.Graph
module Reach = Prospector.Reach
module Proto = Prospector_server.Proto

(* Set-up is measured over this many starts per run and reported as their
   median, so one slow start does not move the figure. *)
let setups = 5

(* The p99 limit the ide-bundled capacity ladder applies. *)
let limit_ms = 25.

let ms x = x *. 1000.

(* "  name = p99 = 1.2 ms (n=1200, 11 beyond)", or why it is missing. *)
let pct_line out name per_mille xs =
  match Summary.percentile ~per_mille xs with
  | Some p -> Outcome.line out "  %s: %s" name (Summary.pct_to_string p)
  | None ->
      Outcome.line out "  %s: %s not reported, %d samples leave fewer than %d beyond it" name
        (Summary.pct_name per_mille) (Array.length xs) Summary.min_beyond

let write_files dir files =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.mapi
    (fun i (name, text) ->
      let path = Filename.concat dir (Printf.sprintf "%04d-%s.japi" i name) in
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      path)
    files

(* Set-up over [setups] starts: the gated figure is the median CPU time,
   the wall time is printed beside it. *)
let report_setup out ~what walls cpus =
  let list xs = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") xs)) in
  Outcome.line out "  set-up (%s), %d starts: wall %s s; CPU %s s" what setups (list walls)
    (list cpus);
  Outcome.line out "  setup_wall_s = %.4f s (median)" (Summary.median walls);
  Outcome.metric out "setup_s" (Summary.median cpus) "s"

(* Start the daemon [setups] times; all but the last only measure set-up. *)
let start_daemon out ~work args =
  let rec go k acc =
    let p, wall, cpu = Wire.spawn_server ~work ~tag:(string_of_int k) args in
    let acc = (wall, cpu) :: acc in
    if k + 1 < setups then begin
      if not (Wire.stop p) then failwith "daemon did not drain cleanly";
      go (k + 1) acc
    end
    else (p, Array.of_list (List.rev acc))
  in
  let p, s = go 0 [] in
  report_setup out ~what:"spawn -> listening" (Array.map fst s) (Array.map snd s);
  p

(* The daemon's combined cache counters, from its stats op. *)
let stats_line out fd =
  let reply = Wire.request fd {|{"op":"stats"}|} in
  let cache = Result.to_option (Proto.parse reply) |> Fun.flip Option.bind (Proto.member "cache") in
  let geti k =
    match Option.bind cache (Proto.member k) with Some (Proto.Int i) -> i | _ -> 0
  in
  let hits = geti "hits" and misses = geti "misses" and evictions = geti "evictions" in
  let ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Outcome.line out "  daemon caches: %d hits, %d misses (hit ratio %.4f), %d evictions" hits
    misses ratio evictions;
  (ratio, evictions)

(* Check every arrival of a phase: [ok a body line] decides on the reply's
   body digest and one reply line with that body. Returns which passed. *)
let check_phase out (phase : Inputs.phase) (o : Wire.outcome) ~ok =
  Array.mapi
    (fun i (a : Inputs.arrival) ->
      let line = Wire.reply o i in
      let good =
        match line with
        | Some l when not (Float.is_nan o.Wire.received.(i)) -> ok a o.Wire.bodies.(i) l
        | _ -> false
      in
      Outcome.check out good ~what:(fun () ->
          Printf.sprintf "%s: request %S got %S" phase.Inputs.label a.Inputs.line
            (match line with
            | None -> "(no reply)"
            | Some r -> if String.length r > 300 then String.sub r 0 300 ^ "..." else r));
      good)
    phase.Inputs.arrivals

(* Latency of each arrival from its due time, ms; [infinity] when it failed. *)
let latencies (phase : Inputs.phase) o good =
  Array.map Summary.latency_ms (Wire.samples phase o ~check:(fun i -> good.(i)))

let lateness_line out (phase : Inputs.phase) o =
  let late = Array.map Summary.lateness_ms (Wire.samples phase o ~check:(fun _ -> true)) in
  Outcome.line out
    "  send delay (send - due, includes waiting for a free connection) in %s: median %.4f ms, \
     max %.4f ms"
    phase.Inputs.label (Summary.median late) (Array.fold_left Float.max 0. late)

(* The reply check for the reads: [check r digest line] is true when the
   reply to read [r] — [line], whose body digest is [digest] — equals the
   oracle's, or differs from it only in which member of a full rank-key tie
   it keeps; those are counted in [out]. The oracle's body digest per
   distinct read and the verdict per distinct differing reply are memoized. *)
let oracle_of out snapshot reads =
  let memo = Hashtbl.create 256 and ties = Hashtbl.create 16 in
  let digest r =
    match Hashtbl.find_opt memo r with
    | Some b -> b
    | None ->
        let b = Digest.string (Oracle.expected snapshot reads.(r)) in
        Hashtbl.replace memo r b;
        b
  in
  fun r body line ->
    body = digest r
    ||
    let tie =
      match Hashtbl.find_opt ties (r, body) with
      | Some t -> t
      | None ->
          let t = Oracle.tie_choice snapshot reads.(r) line in
          Hashtbl.replace ties (r, body) t;
          t
    in
    if tie then
      Outcome.tie out ~what:(fun () -> Inputs.read_line ~id:r reads.(r));
    tie

let error_rate_line out =
  Outcome.line out "  error_rate = %.6f share (%d of %d requests failed a check)"
    (float_of_int out.Outcome.failed /. float_of_int (max 1 out.Outcome.attempted))
    out.Outcome.failed out.Outcome.attempted

(* ------------------------------------------------------------------ *)
(* ide-bundled                                                         *)
(* ------------------------------------------------------------------ *)

let ide_distinct = 1000
let ide_zipf_s = 1.0
let ide_conns = 2

(* The fixed read rate. The paper gives no arrival rates, so this one is
   set by the statistics and the capacity: the 0.7 x 10 s phase gets about
   2800 requests, enough for a p99 with 28 samples beyond it, and the rate
   is an eighth of the highest ladder rung the daemon passed (3200 req/s
   under the 25 ms p99 limit, on two vCPUs), so the phase measures service
   time, not queueing. *)
let ide_rate = 400.
let ide_warmup_s = 1.0
let ide_ladder = [ 800.; 1600.; 3200. ]

(* Each rung runs long enough for about 1300 requests (a p99 needs 1000). *)
let rung_duration rate = Float.max 0.5 (1300. /. rate)

let is_rung (p : Inputs.phase) = p.Inputs.measured && p.Inputs.label <> "fixed-rate"

let ide_inputs ~seed ~seconds (m : Model.t) =
  let reach = Reach.build m.Model.graph in
  let fixed =
    List.map (fun p -> (p.Apidata.Problems.tin, p.Apidata.Problems.tout)) Apidata.Problems.all
    @ List.map (fun p -> (p.Apidata.Extended.tin, p.Apidata.Extended.tout)) Apidata.Extended.all
  in
  let reads =
    Inputs.distinct_reads (Inputs.stream ~seed 1) ~g:m.Model.graph ~reach ~fixed
      ~count:ide_distinct
  in
  let perm =
    Array.of_list
      (Corpusgen.Rng.shuffle (Inputs.stream ~seed 2) (List.init (Array.length reads) Fun.id))
  in
  let cdf = Inputs.zipf_cdf ~n:(Array.length reads) ~s:ide_zipf_s in
  let arrivals = Inputs.stream ~seed 3 in
  let next_id = ref 0 in
  let phase label ~measured rate duration =
    let a =
      Inputs.read_arrivals arrivals ~cdf ~perm ~reads ~rate ~duration ~lane:0 ~first_id:!next_id
    in
    next_id := !next_id + Array.length a;
    { Inputs.label; rate; duration; measured; arrivals = a }
  in
  {
    Inputs.ide_reads = reads;
    ide_phases =
      phase "warm-up" ~measured:false ide_rate ide_warmup_s
      :: phase "fixed-rate" ~measured:true ide_rate (Float.max 1. (seconds *. 0.7))
      :: List.map
           (fun r -> phase (Printf.sprintf "ladder %.0f/s" r) ~measured:true r (rung_duration r))
           ide_ladder;
  }

let ide ~work ~seed ~seconds =
  let out = Outcome.create () in
  let m = Model.bundled () in
  let inputs = ide_inputs ~seed ~seconds m in
  Outcome.line out "  world: bundled J2SE/Eclipse model + mined corpus (%s)" (Provenance.world m);
  Outcome.line out
    "  reads: %d distinct (Zipf s=%.1f), open loop at %.0f req/s over %d connections, one \
     request in flight on each"
    ide_distinct ide_zipf_s ide_rate ide_conns;
  let p = start_daemon out ~work [] in
  let lanes = [| Array.init ide_conns (fun _ -> Wire.connect p.Wire.port) |] in
  (* run the phases; the ladder stops after its first failing rung, judged
     on latency alone until the replies are checked below *)
  let rec drive acc = function
    | [] -> List.rev acc
    | (ph : Inputs.phase) :: rest ->
        let c0 = Clock.process_cpu_s p.Wire.pid in
        let o = Wire.run_phase lanes ph in
        let cpu = Clock.process_cpu_s p.Wire.pid -. c0 in
        let acc = (ph, o, cpu) :: acc in
        let lats = latencies ph o (Array.map (fun r -> not (Float.is_nan r)) o.Wire.received) in
        if is_rung ph && not (Summary.judge ~limit_ms { Summary.rate = ph.Inputs.rate; lats }).Summary.pass
        then List.rev acc
        else drive acc rest
  in
  let results = drive [] inputs.Inputs.ide_phases in
  ignore (stats_line out lanes.(0).(0));
  let rss = Wire.peak_rss_mb p.Wire.pid in
  Array.iter Unix.close lanes.(0);
  if not (Wire.stop p) then Outcome.fail out "daemon did not drain cleanly";
  (* checks, outside the timed region *)
  let expect =
    oracle_of out (Oracle.snapshot_of_engine (Model.serve_engine m)) inputs.Inputs.ide_reads
  in
  let ok (a : Inputs.arrival) body line = expect a.Inputs.read body line in
  let rungs =
    List.filter_map
      (fun ((ph : Inputs.phase), o, cpu) ->
        let lats = latencies ph o (check_phase out ph o ~ok) in
        if ph.Inputs.label = "fixed-rate" then begin
          let n = Array.length lats in
          Outcome.line out "  fixed rate %.0f req/s for %.1f s: %d requests" ph.Inputs.rate
            ph.Inputs.duration n;
          pct_line out "p50_ms" 500 lats;
          pct_line out "p99_ms" 990 lats;
          lateness_line out ph o;
          Outcome.metric out "cpu_ms_per_req" (ms cpu /. float_of_int n) "ms"
        end;
        if is_rung ph then Some { Summary.rate = ph.Inputs.rate; lats } else None)
      results
  in
  Outcome.metric out "peak_rss_mb" rss "MiB";
  List.iter
    (fun r ->
      let v = Summary.judge ~limit_ms r in
      Outcome.line out "  ladder %.0f req/s: %s, backlog %b -> %s" r.Summary.rate
        (match v.Summary.p99 with Some p -> Summary.pct_to_string p | None -> "p99 n/a")
        v.Summary.backlog
        (if v.Summary.pass then "pass" else "fail"))
    rungs;
  (match Summary.max_rps ~limit_ms rungs with
  | Some r -> Outcome.line out "  max_rps = %.0f req/s (p99 limit %.0f ms)" r limit_ms
  | None -> Outcome.line out "  max_rps below the first rung (p99 limit %.0f ms)" limit_ms);
  error_rate_line out;
  out

(* ------------------------------------------------------------------ *)
(* batch-100k                                                          *)
(* ------------------------------------------------------------------ *)

let batch_methods = 100_000

(* The world is the same in every run: [Apigen.mega]'s default seed. The
   run's seed draws the pairs, their order and the checked sample. CPU per
   query is a property of the world more than of the run: with a world per
   seed, seeds 1-10 gave 0.75-1.50 ms (Topk was handed 3628 edges per query
   on one world, 6730 on another) and a quartile spread of 0.17-0.19 of
   the median in three sets, against 0.09 over five seeds of this one. *)
let batch_world_seed = 42

(* `prospector batch` answers a whole query file in one [run_batch] call;
   the closed loop sends query files of this many queries. Each call also
   pays a fixed sequential part (about 12 ms at 100k methods). On seed 1,
   two vCPUs, CPU per query levelled off from 256 queries per call:
   16 -> 2.04 ms, 64 -> 1.47, 256 -> 1.05, 1024 -> 1.03 (the pool's busy
   share 0.29, 0.48, 0.66, 0.88). At 1024 the fixed part is about 2% of a
   call. *)
let batch_size = 1024

(* Distinct pairs generated: more than a 10 s run answered on any seed
   measured (at most 2400 q/s, two vCPUs). A faster run starts over; a pair
   met again 40000 queries later has long left the engine's 256-entry
   cache, so it is still a miss. *)
let batch_queries = 40_000
let batch_sample = 16

(* Sampled within the first queries the loop is sure to reach. *)
let batch_sample_range = 1_000

let batch_inputs ~seed =
  let world = Inputs.world_files ~seed:batch_world_seed ~methods:batch_methods in
  let m = Model.of_japi world in
  let reach = Reach.build m.Model.graph in
  let reads =
    Inputs.distinct_reads (Inputs.stream ~seed 1) ~g:m.Model.graph ~reach ~fixed:[]
      ~count:(batch_queries + (batch_queries / 10))
  in
  (* batch traffic is queries only: the assist share of the read mix is
     dropped, leaving about one unsolvable pair in five *)
  let pairs =
    Array.of_list
      (List.filter_map
         (function Inputs.Query { tin; tout } -> Some (tin, tout) | Inputs.Assist _ -> None)
         (Array.to_list reads))
  in
  let order =
    Corpusgen.Rng.shuffle (Inputs.stream ~seed 2) (List.init (Array.length pairs) Fun.id)
  in
  let sample =
    Corpusgen.Rng.shuffle (Inputs.stream ~seed 3) (List.init batch_sample_range Fun.id)
    |> List.filteri (fun i _ -> i < batch_sample)
    |> List.sort compare |> Array.of_list
  in
  ( {
      Inputs.b_world = world;
      b_queries = Array.of_list (List.map (fun i -> pairs.(i)) order);
      b_sample = sample;
    },
    m )

(* One batch-worker process (this executable again); returns its result. *)
let batch_worker ~work ~jobs ~seconds ~tag mode =
  let out = Filename.concat work ("batch-" ^ tag ^ ".json") in
  let exe = Sys.executable_name in
  let argv =
    [| exe; "batch-worker"; work; string_of_int jobs; string_of_int batch_size;
       Printf.sprintf "%g" seconds; mode; out |]
  in
  if Wire.reap (Wire.spawn exe argv ~out:Unix.stderr) <> Unix.WEXITED 0 then
    failwith "batch worker failed";
  Proto.of_string (Batchw.read_file out)

let num j k =
  match Proto.member k j with
  | Some (Proto.Float f) -> f
  | Some (Proto.Int i) -> float_of_int i
  | _ -> failwith ("batch worker result lacks " ^ k)

let floats j k =
  match Proto.member k j with
  | Some (Proto.Arr xs) ->
      Array.of_list
        (List.map (function Proto.Float f -> f | Proto.Int i -> float_of_int i | _ -> nan) xs)
  | _ -> [||]

let batch ~work ~seed ~seconds =
  let out = Outcome.create () in
  let inputs, m = batch_inputs ~seed in
  let jobs = Provenance.nproc () in
  Outcome.line out "  world: Apigen.mega seed %d (%s), %d .japi files" batch_world_seed (Provenance.world m)
    (List.length inputs.Inputs.b_world);
  Outcome.line out
    "  closed loop, one caller: run_batch calls of %d distinct queries, pool of %d jobs" batch_size
    jobs;
  ignore (write_files (Batchw.world_dir work) inputs.Inputs.b_world);
  let write name f =
    let oc = open_out (Filename.concat work name) in
    f oc;
    close_out oc
  in
  write "queries.txt" (fun oc ->
      Array.iter (fun (a, b) -> Printf.fprintf oc "%s %s\n" a b) inputs.Inputs.b_queries);
  write "sample.txt" (fun oc -> Array.iter (Printf.fprintf oc "%d\n") inputs.Inputs.b_sample);
  let starts =
    List.init setups (fun k ->
        if k + 1 < setups then batch_worker ~work ~jobs ~seconds ~tag:(string_of_int k) "setup"
        else batch_worker ~work ~jobs ~seconds ~tag:"run" "run")
  in
  let r = List.nth starts (setups - 1) in
  let field k = Array.of_list (List.map (fun s -> num s k) starts) in
  report_setup out ~what:"read .japi -> engine, reach index, shard plan, warm hierarchy"
    (field "setup_wall_s") (field "setup_cpu_s");
  let calls = floats r "calls_ms" in
  let answered = int_of_float (num r "answered") and wall = num r "wall_s" in
  Outcome.line out "  %d queries in %d calls over %.2f s" answered (Array.length calls) wall;
  Outcome.line out "  qps = %.1f queries/s" (float_of_int answered /. wall);
  pct_line out "call latency p50_ms" 500 calls;
  pct_line out "call latency p95_ms" 950 calls;
  Outcome.metric out "cpu_ms_per_req" (ms (num r "cpu_s") /. float_of_int answered) "ms";
  Outcome.metric out "peak_rss_mb" (num r "peak_rss_mb") "MiB";
  (* a seeded sample of the answers is checked against the oracle, which
     costs a tenth of a second per query at this size *)
  let snapshot =
    Oracle.snapshot_of_engine (Model.batch_engine ~pool:Prospector_parallel.Pool.sequential m)
  in
  let answers = match Proto.member "answers" r with Some (Proto.Arr xs) -> xs | _ -> [] in
  if List.length answers <> Array.length inputs.Inputs.b_sample then
    Outcome.fail out "batch worker did not return every sampled answer";
  List.iter
    (fun a ->
      let i = int_of_float (num a "i") in
      let tin, tout = inputs.Inputs.b_queries.(i) in
      let rs, _ = Oracle.query_results snapshot (Query.query tin tout) in
      let got = match Proto.member "results" a with Some j -> Proto.to_string j | None -> "" in
      let want = Proto.to_string (Oracle.results_json rs) in
      Outcome.check out (got = want) ~what:(fun () ->
          Printf.sprintf "batch query %d (%s, %s): got %s, oracle %s" i tin tout got want))
    answers;
  Outcome.unchecked out (answered - List.length answers);
  Outcome.line out "  checked %d sampled answers against the oracle; %d answered unchecked"
    (List.length answers) (answered - List.length answers);
  error_rate_line out;
  out

(* ------------------------------------------------------------------ *)
(* reload-10k                                                          *)
(* ------------------------------------------------------------------ *)

let reload_methods = 10_000
let reload_distinct = 300

(* Reads beside the reloads: 150/s over the 2 x 10 s phase gives about 3000
   reads, enough for a p99 with 30 beyond it, at about 0.5 of a core of
   daemon CPU (3.3 ms per read, reload work included, on two vCPUs), so the
   reads and the reloads share the cores without saturating them. *)
let reload_read_rate = 150.

(* Reloads arrive evenly at this rate; at about 12 ms per spliced and 145 ms
   per rebuilt reload over the wire (medians, two vCPUs) the reload
   connection is busy about 45% of the time. *)
let reload_rate = 10.

(* Reloads are slow, so this workload measures twice as long as the others:
   10 reloads/s over 2 x 10 s gives the 200 a p95 needs. *)
let reload_stretch = 2.0
let reload_warmup_s = 0.5

let reload_inputs ~seed ~seconds =
  let world = Inputs.world_files ~seed ~methods:reload_methods in
  let m = Model.of_japi world in
  let reach = Reach.build m.Model.graph in
  let region, target_ok =
    Inputs.edit_region (Inputs.stream ~seed 6) m.Model.graph ~max_share:0.2
  in
  let reads =
    Inputs.distinct_reads ~target_ok (Inputs.stream ~seed 1) ~g:m.Model.graph ~reach ~fixed:[]
      ~count:reload_distinct
  in
  let perm =
    Array.of_list
      (Corpusgen.Rng.shuffle (Inputs.stream ~seed 2) (List.init (Array.length reads) Fun.id))
  in
  let cdf = Inputs.zipf_cdf ~n:(Array.length reads) ~s:ide_zipf_s in
  let arrivals = Inputs.stream ~seed 3 in
  let read_phase ~duration ~first_id =
    Inputs.read_arrivals arrivals ~cdf ~perm ~reads ~rate:reload_read_rate ~duration ~lane:0
      ~first_id
  in
  let warm = read_phase ~duration:reload_warmup_s ~first_id:0 in
  let duration = seconds *. reload_stretch in
  let main_reads = read_phase ~duration ~first_id:(Array.length warm) in
  let first = Array.length warm + Array.length main_reads in
  let count = int_of_float (reload_rate *. duration) in
  let deltas, final =
    Inputs.deltas (Inputs.stream ~seed 5) ~hierarchy:m.Model.hierarchy ~g:m.Model.graph ~region
      ~count
  in
  let reloads =
    Array.mapi
      (fun k d ->
        {
          Inputs.due = (float_of_int k +. 0.5) /. reload_rate;
          lane = 1;
          line = Inputs.delta_line ~id:(first + k) d;
          read = -1;
          delta = k;
        })
      deltas
  in
  ( {
      Inputs.r_world = world;
      r_reads = reads;
      r_deltas = deltas;
      r_phases =
        [
          { Inputs.label = "warm-up"; rate = reload_read_rate; duration = reload_warmup_s;
            measured = false; arrivals = warm };
          { Inputs.label = "reads + reloads"; rate = reload_read_rate; duration; measured = true;
            arrivals = Inputs.merge_by_due main_reads reloads };
        ];
      r_final = final;
    },
    m )

let reply_field reply k =
  match Proto.parse reply with Ok j -> Proto.member k j | Error _ -> None

(* The program's reload path replayed in-process over the same deltas: its
   final snapshot must equal a cold rebuild of its final hierarchy. *)
let replay_reloads out (m : Model.t) (deltas : Inputs.delta array) =
  let svc = Model.service m in
  Array.iteri
    (fun k d ->
      let reply = Prospector_server.Service.handle_line svc (Inputs.delta_line ~id:k d) in
      if reply_field reply "ok" <> Some (Proto.Bool true) then
        Outcome.fail out (Printf.sprintf "in-process replay rejected delta %d: %s" k reply))
    deltas;
  let e = Prospector_server.Service.engine svc in
  let equal =
    Prospector.Delta.frozen_equal (Query.engine_frozen e)
      (Model.rebuild m (Query.engine_hierarchy e))
  in
  if not equal then
    Outcome.fail out "final reloaded snapshot differs from a cold rebuild of its hierarchy";
  equal

let is_structural (inputs : Inputs.reload) (a : Inputs.arrival) =
  a.Inputs.delta >= 0 && inputs.Inputs.r_deltas.(a.Inputs.delta).Inputs.structural

let reload ~work ~seed ~seconds =
  let out = Outcome.create () in
  let inputs, m = reload_inputs ~seed ~seconds in
  let deltas = inputs.Inputs.r_deltas in
  let n_struct = Array.fold_left (fun a d -> if d.Inputs.structural then a + 1 else a) 0 deltas in
  Outcome.line out "  world: Apigen.mega seed %d (%s), %d .japi files" seed (Provenance.world m)
    (List.length inputs.Inputs.r_world);
  Outcome.line out
    "  reads: %d distinct (Zipf s=%.1f) at %.0f req/s on one connection; reloads: %d (%d \
     structural) at %.0f req/s on another"
    reload_distinct ide_zipf_s reload_read_rate (Array.length deltas) n_struct reload_rate;
  let files = write_files (Filename.concat work "world") inputs.Inputs.r_world in
  let p = start_daemon out ~work (List.concat_map (fun f -> [ "--api"; f ]) files) in
  let reader = Wire.connect p.Wire.port and writer = Wire.connect p.Wire.port in
  let lanes = [| [| reader |]; [| writer |] |] in
  let results =
    List.map
      (fun (ph : Inputs.phase) ->
        let c0 = Clock.process_cpu_s p.Wire.pid in
        let o = Wire.run_phase lanes ph in
        (ph, o, Clock.process_cpu_s p.Wire.pid -. c0))
      inputs.Inputs.r_phases
  in
  (* re-ask every distinct read on the final model *)
  let reasked =
    Array.mapi (fun i r -> Wire.request reader (Inputs.read_line ~id:(1_000_000 + i) r))
      inputs.Inputs.r_reads
  in
  ignore (stats_line out reader);
  let rss = Wire.peak_rss_mb p.Wire.pid in
  Unix.close reader;
  Unix.close writer;
  if not (Wire.stop p) then Outcome.fail out "daemon did not drain cleanly";
  (* checks: reads against the oracle on a cold build of the final world
     (deltas never change a read's answer, so one oracle serves every
     generation), reloads by their reply *)
  let final = Model.of_japi inputs.Inputs.r_final in
  let expect =
    oracle_of out (Oracle.snapshot_of_engine (Model.serve_engine final)) inputs.Inputs.r_reads
  in
  let ok (a : Inputs.arrival) body reply =
    if a.Inputs.read >= 0 then expect a.Inputs.read body reply
    else
      reply_field reply "ok" = Some (Proto.Bool true)
      && reply_field reply "mode"
         = Some (Proto.Str (if is_structural inputs a then "rebuilt" else "spliced"))
  in
  Array.iteri
    (fun i reply ->
      Outcome.check out (expect i (Digest.string (Oracle.body reply)) reply) ~what:(fun () ->
          Printf.sprintf "re-asked read %d on the final model got %s" i reply))
    reasked;
  List.iter
    (fun ((ph : Inputs.phase), o, cpu) ->
      let lats = latencies ph o (check_phase out ph o ~ok) in
      if ph.Inputs.measured then begin
        let pick f =
          Array.of_list
            (List.filteri (fun i _ -> f ph.Inputs.arrivals.(i)) (Array.to_list lats))
        in
        let reads = pick (fun a -> a.Inputs.read >= 0) in
        let reloads = pick (fun a -> a.Inputs.delta >= 0) in
        let spliced = pick (fun a -> a.Inputs.delta >= 0 && not (is_structural inputs a)) in
        let rebuilt = pick (is_structural inputs) in
        Outcome.line out "  %s for %.1f s: %d reads, %d reloads" ph.Inputs.label
          ph.Inputs.duration (Array.length reads) (Array.length reloads);
        pct_line out "read p50_ms" 500 reads;
        pct_line out "read p99_ms" 990 reads;
        pct_line out "reload_p50_ms (spliced)" 500 spliced;
        pct_line out "reload_p95_ms (all reloads; rebuilds are the top quarter)" 950 reloads;
        pct_line out "rebuilt reload p50_ms" 500 rebuilt;
        lateness_line out ph o;
        Outcome.metric out "cpu_ms_per_req" (ms cpu /. float_of_int (Array.length reads)) "ms"
      end)
    results;
  Outcome.metric out "peak_rss_mb" rss "MiB";
  let t, equal = Clock.time (fun () -> replay_reloads out m deltas) in
  Outcome.line out
    "  in-process replay of %d deltas: final snapshot equals a cold rebuild: %b (%.2f s)"
    (Array.length deltas) equal t;
  error_rate_line out;
  out
