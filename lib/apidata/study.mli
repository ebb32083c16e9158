(** The four programming problems of the user study (Section 6), with the
    context a participant would have (visible variables), a checker for a
    correct reuse-based answer, and the paper's qualitative outcome for
    Figure 8. *)

type t = {
  id : int;
  title : string;
  statement : string;  (** the problem as given to participants *)
  vars : (string * string) list;  (** visible variables: name, dotted type *)
  tout : string;  (** the output type a successful participant identifies *)
  baseline_tout : string option;
      (** when unaided participants de-facto pursue an easier framing (the
          paper's Problem 4: [getSharedImages().getImage()] instead of an
          [ImageRegistry]), the type of that framing *)
  is_desired : Prospector.Query.result -> bool;
  base_minutes : float;
      (** calibration: mean time of the paper's baseline (no-tool) group;
          Figure 8 is read qualitatively — problem 2 hardest, 1 easiest *)
  paper_speedup : float;  (** with-tool speedup the paper reports (≈2 for
                              problems 1–3, parity for problem 4) *)
}

val all : t list

val tool_rank :
  frozen:Prospector.Graph.frozen -> hierarchy:Javamodel.Hierarchy.t -> t -> int option
(** The rank at which the {e real} engine surfaces the desired solution for
    this problem via content assist over the problem's context — the
    with-tool arm of the simulation is driven by actual system output, on
    the caller's snapshot. *)
