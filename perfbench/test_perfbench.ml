(* Tests of the benchmark's own arithmetic and of its seeded inputs. *)

open Perfbench

let check = Alcotest.check
let feq = Alcotest.float 1e-9

(* ---------- percentiles ---------- *)

let test_rank () =
  check Alcotest.int "p50 of 20" 9 (Summary.rank ~n:20 ~per_mille:500);
  check Alcotest.int "p99 of 1000" 989 (Summary.rank ~n:1000 ~per_mille:990);
  check Alcotest.int "beyond p99 of 1000" 10 (Summary.beyond ~n:1000 ~per_mille:990);
  check Alcotest.int "beyond p99 of 999" 9 (Summary.beyond ~n:999 ~per_mille:990);
  check Alcotest.int "beyond p95 of 200" 10 (Summary.beyond ~n:200 ~per_mille:950)

let test_reportable () =
  let xs n = Array.init n float_of_int in
  (match Summary.percentile ~per_mille:990 (xs 1000) with
  | Some p ->
      check feq "p99 of 0..999" 989. p.Summary.value;
      check Alcotest.int "samples" 1000 p.Summary.n;
      check Alcotest.int "beyond" 10 p.Summary.beyond
  | None -> Alcotest.fail "p99 of 1000 samples must be reported");
  check Alcotest.bool "p99 of 999 samples is a relabelled maximum" true
    (Summary.percentile ~per_mille:990 (xs 999) = None);
  check Alcotest.bool "p50 of 19 samples has 9 beyond" true
    (Summary.percentile ~per_mille:500 (xs 19) = None);
  check Alcotest.bool "nothing from no samples" true (Summary.percentile ~per_mille:500 [||] = None);
  (* order of the input does not matter *)
  let shuffled = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000)) in
  check Alcotest.bool "unsorted input" true
    (Option.map (fun p -> p.Summary.value) (Summary.percentile ~per_mille:990 shuffled) = Some 989.)

let test_median () =
  check feq "median, even count" 5.5 (Summary.median (Array.init 10 (fun i -> float_of_int (i + 1))));
  check feq "median, odd count" 3. (Summary.median [| 5.; 1.; 3. |])

(* ---------- open-loop latency ---------- *)

(* One connection, one request in flight: request 0 stalls for 10 ms, the
   rest take 1 ms. Requests due during the stall are sent late and their
   latency, counted from the due time, carries the wait. *)
let test_due_time () =
  let due = [| 0.; 0.001; 0.002; 0.003 |] and service = [| 0.010; 0.001; 0.001; 0.001 |] in
  let free = ref 0. in
  let samples =
    Array.mapi
      (fun i d ->
        let sent = Float.max d !free in
        let received = sent +. service.(i) in
        free := received;
        { Summary.due = d; sent; received; ok = true })
      due
  in
  let lat = Array.map Summary.latency_ms samples in
  Array.iteri (fun i l -> check (Alcotest.float 1e-6) (Printf.sprintf "request %d" i) 10. l) lat;
  check (Alcotest.float 1e-6) "the stall delayed the send of request 1" 9.
    (Summary.lateness_ms samples.(1));
  check Alcotest.bool "a failed request misses every limit" true
    (Summary.latency_ms { (samples.(0)) with Summary.ok = false } = infinity)

(* ---------- the CPU clock ---------- *)

(* The same work on this domain, then on a domain that has exited by the
   time the clock is read: a sum over live threads would lose the second. *)
let test_exited_threads () =
  let work () =
    let x = ref 0 in
    for i = 1 to 30_000_000 do
      x := !x lxor i
    done;
    Sys.opaque_identity !x
  in
  let cpu () = Clock.process_cpu_s (Unix.getpid ()) in
  let c0 = cpu () in
  ignore (work ());
  let here = cpu () -. c0 in
  let c1 = cpu () in
  ignore (Domain.join (Domain.spawn work));
  let there = cpu () -. c1 in
  check Alcotest.bool
    (Printf.sprintf "exited domain's %.4f s counted (the same work here: %.4f s)" there here)
    true
    (here > 0. && there >= 0.5 *. here)

(* ---------- spans ---------- *)

let test_self_time () =
  (* 0: root [0, 10]; 1: child [1, 3]; 2: child [4, 8]; 3: grandchild [5, 6] *)
  let start = [| 0.; 1.; 4.; 5. |] and stop = [| 10.; 3.; 8.; 6. |] in
  let parent = [| -1; 0; 0; 2 |] in
  let self = Trace.self_times ~start ~stop ~parent 4 in
  check feq "root" 4. self.(0);
  check feq "first child" 2. self.(1);
  check feq "second child minus grandchild" 3. self.(2);
  check feq "leaf" 1. self.(3);
  (* overlapping children count once *)
  let self = Trace.self_times ~start:[| 0.; 1.; 2. |] ~stop:[| 10.; 5.; 6. |] ~parent:[| -1; 0; 0 |] 3 in
  check feq "overlap" 5. self.(0)

let test_recorder () =
  let t = Trace.create () in
  Trace.set_request t 7;
  let v =
    Trace.span t "outer" (fun () ->
        Trace.span t "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
        Trace.span t "inner" (fun () -> 42))
  in
  check Alcotest.int "value passes through" 42 v;
  check Alcotest.int "three spans" 3 (Trace.length t);
  let tot = Trace.totals t in
  check Alcotest.int "inner twice" 2 (Hashtbl.find tot "inner").Trace.count;
  let whole, inside = Trace.coverage t ~root:"outer" in
  check Alcotest.bool "children inside the root" true (inside <= whole && inside > 0.);
  check feq "children time matches coverage" inside (Trace.children_time t 0);
  (match Trace.span t "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception must propagate");
  let self = (Hashtbl.find (Trace.totals t) "outer").Trace.self in
  check Alcotest.bool "self time is duration minus children" true
    (Float.abs (self -. (whole -. inside)) < 1e-9)

(* ---------- the capacity ladder ---------- *)

let flat n v = Array.make n v

let test_ladder () =
  let limit_ms = 20. in
  let rung rate lats = { Summary.rate; lats } in
  let ok = flat 1200 1. and slow = Array.append (flat 1180 1.) (flat 20 50.) in
  check Alcotest.bool "all pass" true
    (Summary.max_rps ~limit_ms [ rung 100. ok; rung 200. ok; rung 400. ok ] = Some 400.);
  check Alcotest.bool "stops at the first failing rung" true
    (Summary.max_rps ~limit_ms [ rung 100. ok; rung 200. ok; rung 400. slow; rung 800. ok ]
    = Some 200.);
  check Alcotest.bool "rungs are walked by rate" true
    (Summary.max_rps ~limit_ms [ rung 400. slow; rung 100. ok; rung 200. ok ] = Some 200.);
  check Alcotest.bool "first rung fails" true (Summary.max_rps ~limit_ms [ rung 100. slow ] = None);
  (* a backlog that grows but has not yet crossed the limit still fails *)
  let growing = Array.init 1200 (fun i -> float_of_int i /. 1200. *. 18.) in
  let v = Summary.judge ~limit_ms (rung 100. growing) in
  check Alcotest.bool "p99 under the limit" true
    (match v.Summary.p99 with Some p -> p.Summary.value <= limit_ms | None -> false);
  check Alcotest.bool "backlog" true v.Summary.backlog;
  check Alcotest.bool "growing backlog fails" false v.Summary.pass;
  check Alcotest.bool "too few samples for a p99" false
    (Summary.judge ~limit_ms (rung 100. (flat 999 1.))).Summary.pass;
  let failed = Array.copy ok in
  for i = 0 to 19 do failed.(i * 50) <- infinity done;
  check Alcotest.bool "failed requests miss the limit" false
    (Summary.judge ~limit_ms (rung 100. failed)).Summary.pass

(* ---------- seeded inputs ---------- *)

(* Digests of everything a run would send. *)
let digest_phases (phases : Inputs.phase list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b (Printf.sprintf "%s %h %h\n" p.Inputs.label p.Inputs.rate p.Inputs.duration);
      Array.iter
        (fun (a : Inputs.arrival) ->
          Buffer.add_string b (Printf.sprintf "%h %d %s\n" a.Inputs.due a.Inputs.lane a.Inputs.line))
        p.Inputs.arrivals)
    phases;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_files files =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.concat_map (fun (n, s) -> [ n; s ]) files)))


let ide_digest seed =
  let i = Workloads.ide_inputs ~seed ~seconds:2. (Model.bundled ()) in
  digest_phases i.Inputs.ide_phases

let reload_digest seed =
  let i, _ = Workloads.reload_inputs ~seed ~seconds:2. in
  String.concat " "
    [
      digest_files i.Inputs.r_world;
      digest_phases i.Inputs.r_phases;
      digest_files i.Inputs.r_final;
    ]

let world_digest seed =
  let files = Inputs.world_files ~seed ~methods:3_000 in
  let m = Model.of_japi files in
  let reads =
    Inputs.distinct_reads (Inputs.stream ~seed 1) ~g:m.Model.graph
      ~reach:(Prospector.Reach.build m.Model.graph) ~fixed:[] ~count:200
  in
  digest_files files ^ " "
  ^ Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (Array.map (Inputs.read_line ~id:0) reads))))

let test_determinism name digest () =
  let a = digest 1 and b = digest 1 and c = digest 2 in
  check Alcotest.string (name ^ ": same seed, same bytes") a b;
  check Alcotest.bool (name ^ ": another seed, other bytes") true (a <> c)

let test_reload_deltas_spare_reads () =
  (* every reload adds edges only into the edit region, which reaches no
     read target: the invariant that lets one oracle check every read *)
  let i, m = Workloads.reload_inputs ~seed:3 ~seconds:2. in
  check Alcotest.bool "some deltas" true (Array.length i.Inputs.r_deltas > 0);
  check Alcotest.bool "every fourth is structural" true
    (Array.for_all (fun x -> x) (Array.mapi (fun k d -> d.Inputs.structural = (k mod 4 = 3)) i.Inputs.r_deltas));
  let final = Model.of_japi i.Inputs.r_final in
  let s0 = Oracle.snapshot_of_engine (Model.serve_engine m) in
  let s1 = Oracle.snapshot_of_engine (Model.serve_engine final) in
  Array.iteri
    (fun k r ->
      if k < 40 then check Alcotest.string "read answer unchanged" (Oracle.expected s0 r) (Oracle.expected s1 r))
    i.Inputs.r_reads

(* ---------- reply checks ---------- *)

(* An assist request whose third suggestion is a full rank-key tie: the
   free receiver of [receiver.getFile(...)] is an IProject or an IFolder,
   and nothing in the key tells them apart. *)
let tie_read =
  Inputs.Assist
    {
      tout = "org.eclipse.ui.FileEditorInput";
      vars =
        [
          ("v1", "java.io.InputStreamReader");
          ("v2", "org.eclipse.swt.widgets.TableColumn");
          ("v3", "org.eclipse.ui.IWorkbenchPart");
        ];
    }

let test_tie_choice () =
  let m = Model.bundled () in
  let s = Oracle.snapshot_of_engine (Model.serve_engine m) in
  let tout, vars = match tie_read with Inputs.Assist a -> (a.tout, a.vars) | _ -> assert false in
  let ex = Oracle.oracle_suggestions s ~tout ~vars in
  let reply ss = Prospector_server.Proto.to_string (Oracle.assist_reply ss) in
  let with_code k code =
    reply (List.mapi (fun i (sg : Prospector.Assist.suggestion) -> if i = k then { sg with code } else sg) ex)
  in
  let slot = List.nth ex 2 in
  let others =
    List.filter_map
      (fun (v, key, code) ->
        if v = slot.uses_var && code <> slot.code
           && Prospector.Rank.compare_key key slot.result.Prospector.Query.key = 0
        then Some code
        else None)
      (Oracle.tie_members s ~tout ~vars)
  in
  check Alcotest.bool "slot 3 is a tie with another member" true (others <> []);
  check Alcotest.bool "the oracle's own reply passes" true (Oracle.tie_choice s tie_read (reply ex));
  check Alcotest.bool "another member of the tie passes" true
    (Oracle.tie_choice s tie_read (with_code 2 (List.hd others)));
  check Alcotest.bool "a code from outside the tie fails" false
    (Oracle.tie_choice s tie_read (with_code 2 (List.nth ex 3).code));
  check Alcotest.bool "a tie member at a slot it does not tie fails" false
    (Oracle.tie_choice s tie_read (with_code 3 (List.hd others)));
  check Alcotest.bool "a reply with a suggestion missing fails" false
    (Oracle.tie_choice s tie_read (reply (List.filteri (fun i _ -> i <> 9) ex)));
  let svc = Model.service m in
  let q = Inputs.Query { tin = "java.io.InputStream"; tout = "java.io.BufferedReader" } in
  check Alcotest.bool "a query reply never passes" false
    (Oracle.tie_choice s q (Prospector_server.Service.handle_line svc (Inputs.read_line ~id:2 q)));
  (* the daemon's own reply, whichever member it keeps *)
  let got = Prospector_server.Service.handle_line svc (Inputs.read_line ~id:1 tie_read) in
  check Alcotest.bool "the daemon's reply passes" true
    (Oracle.body got = Oracle.expected s tie_read || Oracle.tie_choice s tie_read got)

let test_truncated_assist () =
  (* an assist whose exhaustive enumeration reaches the path cap is judged
     against the plain run, as a truncated query is *)
  let i, m = Workloads.reload_inputs ~seed:210 ~seconds:2. in
  let s = Oracle.snapshot_of_engine (Model.serve_engine m) in
  let svc = Model.service m in
  let truncated =
    List.filter
      (function
        | Inputs.Assist { tout; vars } -> (
            match Oracle.enumerate s ~tout ~vars with Some e -> e.Oracle.truncated | None -> false)
        | Inputs.Query _ -> false)
      (Array.to_list i.Inputs.r_reads)
  in
  check Alcotest.bool "some assist reaches the cap" true (truncated <> []);
  List.iter
    (fun r ->
      let got = Prospector_server.Service.handle_line svc (Inputs.read_line ~id:1 r) in
      check Alcotest.string "daemon = plain run" (Oracle.expected s r) (Oracle.body got))
    truncated

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "nearest rank and samples beyond" `Quick test_rank;
          Alcotest.test_case "percentile needs ten samples beyond" `Quick test_reportable;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "latency counts from the due time" `Quick test_due_time;
          Alcotest.test_case "max_rps ladder rule" `Quick test_ladder;
        ] );
      ( "clock",
        [ Alcotest.test_case "CPU of exited threads counts" `Quick test_exited_threads ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "only members of a rank-key tie are interchangeable" `Quick test_tie_choice;
          Alcotest.test_case "a capped assist is judged against the plain run" `Slow test_truncated_assist;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "ide-bundled inputs are seeded" `Quick (test_determinism "ide" ide_digest);
          Alcotest.test_case "generated world and reads are seeded" `Quick
            (test_determinism "world" world_digest);
          Alcotest.test_case "reload-10k inputs are seeded" `Slow (test_determinism "reload" reload_digest);
          Alcotest.test_case "reload deltas never change a read" `Slow test_reload_deltas_spare_reads;
        ] );
    ]
