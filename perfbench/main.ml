(* perfbench: the repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
   are the end-to-end ones, with --trace 1 the per-layer breakdown. A failed
   reply or oracle check makes "correct" false and is listed above the
   result; the exit code stays 0 so the figures are still read. A run that
   cannot finish exits nonzero without a result. *)

open Perfbench

let workloads = [ "ide-bundled"; "batch-100k"; "reload-10k" ]

let json_result (out : Outcome.t) =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (out.Outcome.failed = 0) (max 1 out.Outcome.attempted) out.Outcome.failed
    (String.concat ", "
       (List.rev_map
          (fun (m : Outcome.metric) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.Outcome.name m.Outcome.value
              m.Outcome.unit)
          out.Outcome.metrics))

let usage () =
  prerr_endline
    "usage: main.exe --workload (ide-bundled|batch-100k|reload-10k) --seed N --seconds S \
     --trace 0|1";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run ~workload ~seed ~seconds ~trace =
  let work = Printf.sprintf "_perfbench/%s-seed%d-trace%d" workload seed trace in
  mkdir_p work;
  Printf.printf "perfbench %s, seed %d, %g s, trace %d\n" workload seed seconds trace;
  Printf.printf "  git: %s; nproc: %d\n%!" (Provenance.git_describe ()) (Provenance.nproc ());
  let out =
    if trace = 1 then Traced.run ~workload ~work ~seed ~seconds
    else
      match workload with
      | "ide-bundled" -> Workloads.ide ~work ~seed ~seconds
      | "batch-100k" -> Workloads.batch ~work ~seed ~seconds
      | _ -> Workloads.reload ~work ~seed ~seconds
  in
  List.iter print_endline (List.rev out.Outcome.lines);
  print_endline (if trace = 1 then "per-layer metrics:" else "end-to-end metrics (gated):");
  List.iter
    (fun (m : Outcome.metric) ->
      Printf.printf "  %s = %.6g %s\n" m.Outcome.name m.Outcome.value m.Outcome.unit)
    (List.rev out.Outcome.metrics);
  (* passed, but not byte-equal to the exhaustive oracle: see Oracle.tie_choice *)
  Option.iter
    (Printf.printf
       "TIES: %d replies kept another member of a full rank-key tie than the exhaustive \
        oracle (strategies disagree there; accepted), first: request %s\n"
       out.Outcome.ties)
    out.Outcome.tie_example;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev out.Outcome.failures);
  let unlisted = out.Outcome.failed - List.length out.Outcome.failures in
  if unlisted > 0 then Printf.printf "FAILED: %d more failed checks, not listed\n" unlisted;
  (* the generated world is the bulk of a run's files; spans and results stay *)
  rm_rf (Filename.concat work "world");
  print_endline (json_result out)

let () =
  match Array.to_list Sys.argv with
  | [ _; "batch-worker"; dir; jobs; size; seconds; mode; out ] ->
      Batchw.main ~dir ~jobs:(int_of_string jobs) ~size:(int_of_string size)
        ~seconds:(float_of_string seconds) ~setup_only:(mode = "setup") ~out
  | _ :: args -> (
      let rec parse (w, s, secs, t) = function
        | "--workload" :: v :: rest -> parse (Some v, s, secs, t) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, secs, t) rest
        | "--seconds" :: v :: rest -> parse (w, s, float_of_string_opt v, t) rest
        | "--trace" :: v :: rest -> parse (w, s, secs, int_of_string_opt v) rest
        | [] -> (w, s, secs, t)
        | _ -> usage ()
      in
      match parse (None, Some 1, Some 10., Some 0) args with
      | Some workload, Some seed, Some seconds, Some trace
        when List.mem workload workloads && (trace = 0 || trace = 1) && seconds > 0. ->
          run ~workload ~seed ~seconds ~trace
      | _ -> usage ())
  | [] -> usage ()
