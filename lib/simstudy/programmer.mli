(** The simulated-programmer cost model behind the Figure 8 reproduction.

    A real user study is impossible in this environment, so the two arms of
    the experiment are modeled — but asymmetrically grounded in the real
    system:

    - the {b with-tool} arm is driven by the {e actual} ranks the engine
      produces for each study problem's context (invoke assist, read
      suggestions in rank order, insert, verify);
    - the {b baseline} arm walks the {e actual} signature graph along the
      known solution path, paying a member-scanning cost proportional to
      each class's real out-degree, and a documentation-search cost for
      every "hidden link" — an elementary jungloid (like
      [JavaCore.createCompilationUnitFrom]) that class browsing cannot
      reveal because it lives on a different class than the object in hand
      (the paper's Section 1 observation). A programmer whose budget runs
      out gives up on reuse and reimplements, possibly incorrectly — the
      behavior the paper reports for Problems 1 and 3.

    All constants are global, documented, and identical across problems:
    per-problem difficulty differences {e emerge} from the graph. *)

type constants = {
  minutes_per_member_scanned : float;
  doc_search_minutes : float;  (** cost of one documentation hunt *)
  doc_success_probability : float;  (** chance a hunt reveals the hidden link *)
  understand_fraction : float;
      (** reading/understanding the problem, as a fraction of base work —
          paid by both arms *)
  inspect_minutes : float;  (** reading one tool suggestion *)
  invoke_minutes : float;  (** invoking assist and typing the context *)
  integrate_minutes : float;  (** inserting and verifying the chosen snippet *)
  max_doc_attempts : int;
      (** documentation hunts per hidden link before giving up on reuse *)
  reimplement_minutes : float;
  reimplement_bug_probability : float;
  detour_probability_per_member : float;
      (** chance each scanned member lures the programmer down a wrong path *)
  detour_minutes : float;  (** mean cost of one wrong turn *)
}

val default_constants : constants

type outcome = Correct_reuse | Correct_reimplemented | Incorrect

type attempt = {
  minutes : float;
  outcome : outcome;
}

val solve_with_tool :
  constants ->
  rng:Corpusgen.Rng.t ->
  skill:float ->
  frozen:Prospector.Graph.frozen ->
  hierarchy:Javamodel.Hierarchy.t ->
  Apidata.Study.t ->
  attempt
(** One attempt with content assist ({!Apidata.Study.tool_rank}). *)

val solve_baseline :
  constants ->
  rng:Corpusgen.Rng.t ->
  skill:float ->
  frozen:Prospector.Graph.frozen ->
  hierarchy:Javamodel.Hierarchy.t ->
  Apidata.Study.t ->
  attempt
(** One unaided attempt; a class's browsing cost is its row length in
    [frozen], the out-degree of its node. *)

(** {2 Probe answering}

    The refine-session arm of the simulation: the programmer has the
    desired solution in mind (operationally: a known result, normally the
    one they would have picked by reading the ranked list) and answers
    each probe with the branch whose candidates include it. *)

val same_result : Prospector.Query.result -> Prospector.Query.result -> bool
(** Identity of ranked results: same expression, same generated code. *)

val answer_probe :
  Prospector_eval.Session.t ->
  desired:Prospector.Query.result ->
  int option
(** The choice index whose branch contains [desired]; [None] when the
    session has no pending question (converged). If [desired] is not in
    any branch — it was eliminated by an earlier inconsistent answer —
    the programmer picks branch 0 (the largest). *)
