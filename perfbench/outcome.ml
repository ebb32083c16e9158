(* What a run reports: reply-check counts, failures, the metrics of the
   result line and the human-readable lines printed before them. *)

type metric = { name : string; value : float; unit : string }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
  mutable ties : int;  (** replies that kept another member of a rank-key tie *)
  mutable tie_example : string option;  (** the first of them *)
  mutable lines : string list;  (** report lines, newest first *)
  mutable metrics : metric list;  (** newest first *)
}

let create () =
  { attempted = 0; failed = 0; failures = []; ties = 0; tie_example = None; lines = [];
    metrics = [] }

let line t fmt = Printf.ksprintf (fun s -> t.lines <- s :: t.lines) fmt

(* One checked request. *)
let check t ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.failures < 20 then t.failures <- what () :: t.failures
  end

(* A check that is not a request (oracle equality of a snapshot, the traced
   answers): a failure is listed and makes the run incorrect. *)
let fail t what =
  t.failed <- t.failed + 1;
  t.failures <- what :: t.failures

(* A reply that passed only because it kept another member of a full
   rank-key tie than the oracle did ([Oracle.tie_choice]). *)
let tie t ~what =
  t.ties <- t.ties + 1;
  if t.tie_example = None then t.tie_example <- Some (what ())

let metric t name value unit = t.metrics <- { name; value; unit } :: t.metrics

(* Requests that were answered but not compared with the oracle. *)
let unchecked t n = t.attempted <- t.attempted + n
