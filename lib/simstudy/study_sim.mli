(** The user-study runner (Section 6 / Figure 8).

    Thirteen simulated users each attempt all four problems; for each user
    a random two of the four are solved with PROSPECTOR, the rest without,
    mirroring the paper's random assignment. The summary computes exactly
    the quantities the paper reports: per-problem time distributions for
    both arms, the average speedup (paper: 1.9), the per-user
    faster/same/slower comparison (paper: 10 / 2 / 1), and the outcome
    classification (reuse vs reimplementation vs incorrect). *)

type arm = Tool | Baseline

type run = {
  user : int;
  problem : int;  (** problem id, 1..4 *)
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
  avg_speedup : float;  (** mean over users of (their baseline total / tool total) *)
  users_faster : int;
  users_same : int;  (** within 10% *)
  users_slower : int;
  tool_reuse : int;  (** tool-arm runs solved by reuse *)
  tool_total : int;
  baseline_reuse : int;
  baseline_total : int;
  incorrect_baseline : int;
  incorrect_tool : int;
}

val simulate :
  ?constants:Programmer.constants ->
  ?users:int ->
  ?seed:int ->
  graph:Prospector.Graph.t ->
  hierarchy:Javamodel.Hierarchy.t ->
  Apidata.Study.t list ->
  summary
(** Defaults: 13 users, seed 2005. Every attempt runs on one snapshot of
    [graph]. *)

val render_figure8 : summary -> string
(** A textual Figure 8: per-problem time scatter for both arms with means —
    the series the paper plots. *)

(** {2 Refine-session trials}

    The spec-by-example arm: instead of reading the ranked list, the
    simulated programmer answers probes ({!Programmer.answer_probe},
    desired = the rank-1 result they would have picked manually) until the
    session converges. [to_rank1] must hold on every trial — refine may
    never change the answer, only shorten the path to it. *)

type refine_run = {
  candidates : int;  (** k, the ranked candidates the session started from *)
  questions : int;  (** probes answered before convergence *)
  to_rank1 : bool;  (** the survivor is the original rank-1 result *)
  live_at_end : int;
      (** 1 = fully disambiguated; more = no probe could split the rest
          (opaque tail) and rank order broke the tie *)
}

val refine_results : Prospector.Query.result list -> refine_run option
(** Run one session over a ranked result list; [None] on an empty list. *)

val refine_table1 :
  ?settings:Prospector.Query.settings ->
  graph:Prospector.Graph.t ->
  hierarchy:Javamodel.Hierarchy.t ->
  unit ->
  (Apidata.Problems.t * refine_run) list
(** One refine session per Table 1 problem that returns any results, all
    on one snapshot of [graph]. *)
