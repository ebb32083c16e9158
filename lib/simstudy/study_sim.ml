module Rng = Corpusgen.Rng

type arm = Tool | Baseline

type run = {
  user : int;
  problem : int;
  arm : arm;
  minutes : float;
  outcome : Programmer.outcome;
}

type per_problem = {
  problem : int;
  baseline_mean : float;
  tool_mean : float;
  baseline_times : float list;
  tool_times : float list;
  speedup : float;
}

type summary = {
  runs : run list;
  per_problem : per_problem list;
  avg_speedup : float;
  users_faster : int;
  users_same : int;
  users_slower : int;
  tool_reuse : int;
  tool_total : int;
  baseline_reuse : int;
  baseline_total : int;
  incorrect_baseline : int;
  incorrect_tool : int;
}

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let simulate ?(constants = Programmer.default_constants) ?(users = 13) ?(seed = 2005)
    ~graph ~hierarchy problems =
  let frozen = Prospector.Query.freeze graph in
  let runs = ref [] in
  for user = 1 to users do
    (* Per-user stream for ability and assignment; per-(user, problem)
       streams for the attempts, so a change in one cell's draw count
       (e.g. a different route after a model change) cannot shift the
       randomness of unrelated cells. *)
    let user_rng = Rng.create ~seed:(seed + (user * 7919)) in
    let skill = 0.6 +. Rng.float user_rng 1.0 in
    let ids = List.map (fun (p : Apidata.Study.t) -> p.Apidata.Study.id) problems in
    let shuffled = Rng.shuffle user_rng ids in
    let tool_ids = List.filteri (fun i _ -> i < List.length ids / 2) shuffled in
    List.iter
      (fun (p : Apidata.Study.t) ->
        let arm = if List.mem p.Apidata.Study.id tool_ids then Tool else Baseline in
        let rng =
          Rng.create ~seed:((seed * 1000003) + (user * 1009) + p.Apidata.Study.id)
        in
        let attempt =
          match arm with
          | Tool ->
              Programmer.solve_with_tool constants ~rng ~skill ~frozen ~hierarchy p
          | Baseline ->
              Programmer.solve_baseline constants ~rng ~skill ~frozen ~hierarchy p
        in
        runs :=
          {
            user;
            problem = p.Apidata.Study.id;
            arm;
            minutes = attempt.Programmer.minutes;
            outcome = attempt.Programmer.outcome;
          }
          :: !runs)
      problems
  done;
  let runs = List.rev !runs in
  let per_problem =
    List.map
      (fun (p : Apidata.Study.t) ->
        let id = p.Apidata.Study.id in
        let times arm =
          List.filter_map
            (fun (r : run) ->
              if r.problem = id && r.arm = arm then Some r.minutes else None)
            runs
        in
        let bt = times Baseline and tt = times Tool in
        {
          problem = id;
          baseline_mean = mean bt;
          tool_mean = mean tt;
          baseline_times = bt;
          tool_times = tt;
          speedup = (if mean tt > 0.0 then mean bt /. mean tt else 1.0);
        })
      problems
  in
  (* Per-user comparison: total time with the tool vs without. *)
  let faster = ref 0 and same = ref 0 and slower = ref 0 in
  let speedups = ref [] in
  for user = 1 to users do
    let total arm =
      List.fold_left
        (fun acc (r : run) ->
          if r.user = user && r.arm = arm then acc +. r.minutes else acc)
        0.0 runs
    in
    let bt = total Baseline and tt = total Tool in
    if tt > 0.0 && bt > 0.0 then begin
      let ratio = bt /. tt in
      speedups := ratio :: !speedups;
      if ratio > 1.1 then incr faster
      else if ratio < 0.9 then incr slower
      else incr same
    end
  done;
  let count arm pred =
    List.length (List.filter (fun (r : run) -> r.arm = arm && pred r.outcome) runs)
  in
  {
    runs;
    per_problem;
    avg_speedup = mean !speedups;
    users_faster = !faster;
    users_same = !same;
    users_slower = !slower;
    tool_reuse = count Tool (fun o -> o = Programmer.Correct_reuse);
    tool_total = count Tool (fun _ -> true);
    baseline_reuse = count Baseline (fun o -> o = Programmer.Correct_reuse);
    baseline_total = count Baseline (fun _ -> true);
    incorrect_baseline = count Baseline (fun o -> o = Programmer.Incorrect);
    incorrect_tool = count Tool (fun o -> o = Programmer.Incorrect);
  }

let render_figure8 s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 8 — time spent coding (minutes), per problem and arm\n";
  List.iter
    (fun pp ->
      Buffer.add_string buf (Printf.sprintf "\nProblem %d:\n" pp.problem);
      let line label times m =
        Buffer.add_string buf
          (Printf.sprintf "  %-10s mean %5.1f | %s\n" label m
             (String.concat " "
                (List.map (fun t -> Printf.sprintf "%4.1f" t)
                   (List.sort compare times))))
      in
      line "baseline" pp.baseline_times pp.baseline_mean;
      line "prospector" pp.tool_times pp.tool_mean;
      Buffer.add_string buf (Printf.sprintf "  speedup %.2fx\n" pp.speedup))
    s.per_problem;
  Buffer.add_string buf
    (Printf.sprintf
       "\nusers faster with tool: %d, same: %d, slower: %d; average speedup %.2fx\n"
       s.users_faster s.users_same s.users_slower s.avg_speedup);
  Buffer.add_string buf
    (Printf.sprintf "reuse with tool: %d/%d; without: %d/%d; incorrect: %d tool, %d baseline\n"
       s.tool_reuse s.tool_total s.baseline_reuse s.baseline_total s.incorrect_tool
       s.incorrect_baseline);
  Buffer.contents buf

(* ---------- refine-session trials ---------- *)

module Esession = Prospector_eval.Session

type refine_run = {
  candidates : int;
  questions : int;
  to_rank1 : bool;
  live_at_end : int;
}

let refine_results (results : Prospector.Query.result list) =
  match results with
  | [] -> None
  | rank1 :: _ ->
      let cands =
        List.map (fun r -> { Esession.source = None; result = r }) results
      in
      let st = ref (Esession.start cands) in
      let questions = ref 0 in
      let continue = ref true in
      while !continue do
        match Programmer.answer_probe !st ~desired:rank1 with
        | None -> continue := false
        | Some choice -> (
            match Esession.answer !st ~choice with
            | Ok st' ->
                incr questions;
                st := st'
            | Error _ -> continue := false)
      done;
      Some
        {
          candidates = List.length results;
          questions = !questions;
          to_rank1 = Programmer.same_result (Esession.best !st).Esession.result rank1;
          live_at_end = List.length (Esession.live !st);
        }

let refine_table1 ?settings ~graph ~hierarchy () =
  let frozen = Prospector.Query.freeze graph in
  List.filter_map
    (fun (p : Apidata.Problems.t) ->
      let m = Apidata.Problems.run_one ?settings ~frozen ~hierarchy p in
      Option.map (fun r -> (p, r)) (refine_results m.Apidata.Problems.results))
    Apidata.Problems.all
