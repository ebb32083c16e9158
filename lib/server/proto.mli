(** The wire protocol of the prospector daemon: newline-delimited JSON.

    One request per line, one response line per request, in order. The JSON
    codec is hand-rolled on the same no-new-deps policy as
    {!Analysis.Diagnostic}'s rendering — the subset we implement is full
    RFC 8259 minus one liberty: strings are byte sequences (the encoder
    escapes control characters and passes bytes >= 0x80 through verbatim;
    the decoder expands [\uXXXX] to UTF-8), so any OCaml string round-trips
    losslessly.

    Request grammar (one object per line):
    {v
      {"op": "query",    "id"?: J, "tin": S, "tout": S,
       "max_results"?: I, "slack"?: I, "ranking"?: S, "protocol"?: S,
       "cluster"?: B}
      {"op": "assist",   "id"?: J, "tout": S,
       "vars"?: [{"name": S, "type": S}...], "max_results"?: I, "slack"?: I}
      {"op": "batch",    "id"?: J, "queries": [{"tin": S, "tout": S}...],
       "max_results"?: I, "slack"?: I}
      {"op": "lint",     "id"?: J, "tin": S, "tout": S}
      {"op": "refine_start",  "id"?: J, "tout": S,
       "tin"?: S | "vars"?: [{"name": S, "type": S}...],
       "max_results"?: I, "slack"?: I, "strategy"?: S, "ranking"?: S,
       "protocol"?: S}
      {"op": "refine_answer", "id"?: J, "session": S, "choice": I}
      {"op": "refine_status", "id"?: J, "session": S}
      {"op": "refine_stop",   "id"?: J, "session": S}
      {"op": "stats",    "id"?: J}
      {"op": "health",   "id"?: J}
      {"op": "shutdown", "id"?: J}
    v}
    [refine_start] opens a stateful disambiguation session over the
    query's (or assist context's) ranked candidates; the reply carries a
    session id for the follow-up ops. A [tin] makes it query-shaped, [vars]
    make it assist-shaped (passing both is a [bad_request]).
    Responses echo ["id"] verbatim and carry ["ok": true] plus op-specific
    payload, or ["ok": false] with an ["error": {"code", "message"}]
    object. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string  (** raw bytes; see the codec note above *)
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val to_string : json -> string
(** Compact (single-line, minimal whitespace) rendering. Floats print with
    the shortest decimal that round-trips; non-finite floats render as
    [null] (JSON has no spelling for them). *)

val of_string : string -> json
(** @raise Parse_error on malformed input, trailing garbage, or nesting
    deeper than {!max_depth}. *)

val parse : string -> (json, string) result
(** {!of_string} with the error as a value. *)

val max_depth : int
(** Nesting bound of the decoder (a hostile request must not be able to
    blow the stack): 128. *)

val member : string -> json -> json option
(** Field lookup in an [Obj]; [None] on other constructors. *)

(** {1 Typed requests} *)

type request =
  | Query of {
      tin : string;
      tout : string;
      max_results : int option;
      slack : int option;
      strategy : string option;
          (** ["best-first"] or ["exhaustive"]; absent = server default.
              Validated by {!Service} (not here) so the error reply can say
              which spellings exist. *)
      ranking : string option;
          (** ["paper"] or ["mined"]; absent = server default. Validated by
              {!Service}, like [strategy]. *)
      protocol : string option;
          (** ["off"], ["warn"] or ["filter"]; absent = server default.
              Validated by {!Service}, like [strategy]. *)
      cluster : bool;
    }
  | Assist of {
      tout : string;
      vars : (string * string) list;  (** (name, type) pairs *)
      max_results : int option;
      slack : int option;
      strategy : string option;
      ranking : string option;
      protocol : string option;
    }
  | Batch of {
      pairs : (string * string) list;  (** (tin, tout) pairs *)
      max_results : int option;
      slack : int option;
      strategy : string option;
      ranking : string option;
      protocol : string option;
    }
  | Lint of { tin : string; tout : string }
  | Refine_start of {
      tin : string option;  (** query-shaped when present *)
      tout : string;
      vars : (string * string) list;  (** assist-shaped when non-empty *)
      max_results : int option;
      slack : int option;
      strategy : string option;
      ranking : string option;
      protocol : string option;
    }
  | Refine_answer of {
      session : string;
      choice : int;  (** index into the pending question's choice list *)
    }
  | Refine_status of { session : string }
  | Refine_stop of { session : string }
  | Reload of {
      japi : string option;
          (** [.japi] source sent inline: every class in it is added if
              undeclared, replaced otherwise *)
      remove : string list;  (** fully qualified class names to drop *)
      corpus : string option;
          (** mini-Java source sent inline: examples mined from it are
              folded into the usage/protocol models *)
    }
      (** Apply a model delta to the running server. At least one field must
          be present; per-delta validation failures come back as a
          [bad_request] carrying an [errors] array of
          [{index, op, subject, reason}] objects. *)
  | Stats
  | Health
  | Shutdown

type envelope = { id : json; req : request }
(** [id] is echoed into the response untouched; [Null] when absent. *)

val request_of_json : json -> (envelope, string) result
(** [Error] on a missing or ill-typed field, and on a negative
    ["max_results"] or ["slack"] ({!Prospector.Query.check_limits}). *)

val envelope_to_json : envelope -> json
(** The client-side inverse of {!request_of_json}:
    [request_of_json (envelope_to_json e) = Ok e] for every envelope whose
    counts are non-negative. *)

(** {1 Responses} *)

type error_code =
  | Bad_request  (** unparsable JSON, missing/ill-typed fields, or bad values *)
  | Unknown_op
  | Too_large  (** request line over the server's byte limit *)
  | Busy  (** connection limit reached; retry later *)
  | Timeout  (** the per-request deadline elapsed *)
  | Session_expired
      (** the refine session id is unknown — evicted by TTL, stopped, or
          never issued. Distinct from [Bad_request] so clients can restart
          the session instead of fixing the request. *)
  | Shutting_down
  | Internal  (** engine raised; message carries the details *)

val error_code_string : error_code -> string

val ok_response : id:json -> op:string -> (string * json) list -> json
(** [{"id": id, "ok": true, "op": op, ...fields}]. *)

val error_response : id:json -> error_code -> string -> json
(** [{"id": id, "ok": false, "error": {"code", "message"}}]. *)
