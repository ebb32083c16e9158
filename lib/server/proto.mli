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
      {"op": "query",    "id"?: J, "tin": S, "tout": S, SETTINGS}
      {"op": "assist",   "id"?: J, "tout": S,
       "vars"?: [{"name": S, "type": S}...], SETTINGS}
      {"op": "batch",    "id"?: J, "queries": [{"tin": S, "tout": S}...],
       SETTINGS}
      {"op": "lint",     "id"?: J, "tin": S, "tout": S}
      {"op": "refine_start",  "id"?: J, "tout": S,
       "tin"?: S | "vars"?: [{"name": S, "type": S}...], SETTINGS}
      {"op": "refine_answer", "id"?: J, "session": S, "choice": I}
      {"op": "refine_status", "id"?: J, "session": S}
      {"op": "refine_stop",   "id"?: J, "session": S}
      {"op": "reload",   "id"?: J, "japi"?: S, "remove"?: [S...]}
      {"op": "stats",    "id"?: J}
      {"op": "health",   "id"?: J}
      {"op": "shutdown", "id"?: J}
    v}
    where SETTINGS stands for the optional fields of {!overrides}:
    {v
       "max_results"?: I, "slack"?: I, "strategy"?: S, "ranking"?: S,
       "protocol"?: S
    v}
    The grammar is closed: a request, a [vars] item or a [queries] item
    that carries any other field is a [bad_request] naming that field, so
    a misspelled setting is never dropped in silence.
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

type overrides = {
  max_results : int option;  (** non-negative *)
  slack : int option;  (** non-negative *)
  strategy : Prospector.Query.strategy option;
  ranking : Prospector.Query.ranking option;
  protocol : Prospector.Query.protocol option;
}
(** The per-request settings a [query], [assist], [batch] or
    [refine_start] may carry, each overriding the server's base setting
    when present. On the wire they are five optional fields, spelled as
    {!Prospector.Query.strategy_to_string} and its siblings spell them;
    {!request_of_json} validates all five. *)

val defaults : overrides
(** Every field absent: the server's base settings apply. *)

type request =
  | Query of {
      tin : string;
      tout : string;
      overrides : overrides;
    }
  | Assist of {
      tout : string;
      vars : (string * string) list;  (** (name, type) pairs *)
      overrides : overrides;
    }
  | Batch of {
      pairs : (string * string) list;  (** (tin, tout) pairs *)
      overrides : overrides;
    }
  | Lint of { tin : string; tout : string }
  | Refine_start of {
      tin : string option;  (** query-shaped when present *)
      tout : string;
      vars : (string * string) list;  (** assist-shaped when non-empty *)
      overrides : overrides;
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
    }
      (** Apply an API delta to the running server. At least one field must
          be present; per-delta validation failures come back as a
          [bad_request] carrying an [errors] array of
          [{index, op, subject, reason}] objects. A reload changes the API
          model only: the mined corpus and the models learned from it are
          fixed at server start, and a request that carries a ["corpus"]
          field is a [bad_request] that applies nothing. *)
  | Stats
  | Health
  | Shutdown

type envelope = { id : json; req : request }
(** [id] is echoed into the response untouched; [Null] when absent. *)

val request_of_json : json -> (envelope, string) result
(** [Error] on a missing or ill-typed field, on a blank type name in any
    ["tin"], ["tout"] or var ["type"] field
    ({!Prospector.Query.check_type_name}), on a negative ["max_results"]
    or ["slack"] ({!Prospector.Query.check_limits}), on an unknown
    ["strategy"], ["ranking"] or ["protocol"] spelling (the message lists
    the accepted ones), on a reload that carries a ["corpus"] field, and
    on any field outside the grammar above — ["unknown field "K" in
    ..."], followed by the fields that object takes. *)

val envelope_to_json : envelope -> json
(** The client-side inverse of {!request_of_json}:
    [request_of_json (envelope_to_json e) = Ok e] for every envelope whose
    counts are non-negative and whose type names are not blank. *)

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
