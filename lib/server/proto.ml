type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let max_depth = 128

(* ---------- encoder ---------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The shortest decimal that reads back as the same double ("%.15g" almost
   always; "%.17g" for the awkward ones). *)
let float_literal f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  (* "1." style output is not JSON; neither is a bare "inf". *)
  if
    String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    || String.contains s 'n' (* nan/inf never reach here, see encode *)
  then s
  else s ^ ".0"

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_literal f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          encode buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\": ";
          encode buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  encode buf j;
  Buffer.contents buf

(* ---------- decoder ---------- *)

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c (Printf.sprintf "expected %C, found %C" ch x)
  | None -> fail c (Printf.sprintf "expected %C, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad hex digit in \\u escape"

let hex4 c =
  if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
  let v =
    (hex_digit c c.s.[c.pos] lsl 12)
    lor (hex_digit c c.s.[c.pos + 1] lsl 8)
    lor (hex_digit c c.s.[c.pos + 2] lsl 4)
    lor hex_digit c c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "truncated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 c in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* high surrogate: require the paired low one *)
                  if
                    c.pos + 2 <= String.length c.s
                    && c.s.[c.pos] = '\\'
                    && c.s.[c.pos + 1] = 'u'
                  then begin
                    c.pos <- c.pos + 2;
                    let lo = hex4 c in
                    if lo < 0xDC00 || lo > 0xDFFF then fail c "bad surrogate pair";
                    add_utf8 buf
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                  end
                  else fail c "lone high surrogate"
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then fail c "lone low surrogate"
                else add_utf8 buf cp
            | _ -> fail c (Printf.sprintf "bad escape \\%c" e));
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then advance c;
  let digits () =
    let d = ref 0 in
    while (match peek c with Some '0' .. '9' -> true | _ -> false) do
      advance c;
      incr d
    done;
    !d
  in
  if digits () = 0 then fail c "expected digits";
  if peek c = Some '.' then begin
    is_float := true;
    advance c;
    if digits () = 0 then fail c "expected digits after decimal point"
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      if digits () = 0 then fail c "expected digits in exponent"
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* magnitude beyond int range *)

let rec parse_value c depth =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c (depth + 1) in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage after value";
  v

let parse s = match of_string s with v -> Ok v | exception Parse_error m -> Error m

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ---------- typed requests ---------- *)

type overrides = {
  max_results : int option;
  slack : int option;
  strategy : Prospector.Query.strategy option;
  ranking : Prospector.Query.ranking option;
  protocol : Prospector.Query.protocol option;
}

let defaults =
  { max_results = None; slack = None; strategy = None; ranking = None; protocol = None }

type request =
  | Query of {
      tin : string;
      tout : string;
      overrides : overrides;
    }
  | Assist of {
      tout : string;
      vars : (string * string) list;
      overrides : overrides;
    }
  | Batch of {
      pairs : (string * string) list;
      overrides : overrides;
    }
  | Lint of { tin : string; tout : string }
  | Refine_start of {
      tin : string option;
      tout : string;
      vars : (string * string) list;
      overrides : overrides;
    }
  | Refine_answer of { session : string; choice : int }
  | Refine_status of { session : string }
  | Refine_stop of { session : string }
  | Reload of {
      japi : string option;  (* .japi source: classes added or replaced *)
      remove : string list;  (* fully qualified class names to drop *)
    }
  | Stats
  | Health
  | Shutdown

type envelope = { id : json; req : request }

let ( let* ) = Result.bind

let field_string j k =
  match member k j with
  | Some (Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let field_int_opt j k =
  match member k j with
  | Some (Int i) -> Ok (Some i)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)

let field_string_opt j k =
  match member k j with
  | Some (Str s) -> Ok (Some s)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)

(* The per-request settings, decoded and validated in one place: a
   negative count (the same rule the CLI applies to its flags) or an
   unknown strategy, ranking or protocol spelling is the requester's
   mistake, answered with the accepted spellings before any engine work. *)
let field_overrides j =
  let spelled k of_string =
    let* s = field_string_opt j k in
    match s with
    | None -> Ok None
    | Some s -> Result.map Option.some (of_string s)
  in
  let* max_results = field_int_opt j "max_results" in
  let* slack = field_int_opt j "slack" in
  let* () =
    Prospector.Query.check_limits
      ~max_results:(Option.value max_results ~default:0)
      ~slack:(Option.value slack ~default:0)
  in
  let* strategy = spelled "strategy" Prospector.Query.strategy_of_string in
  let* ranking = spelled "ranking" Prospector.Query.ranking_of_string in
  let* protocol = spelled "protocol" Prospector.Query.protocol_of_string in
  Ok { max_results; slack; strategy; ranking; protocol }

(* A type-name field: a blank name is the requester's mistake, answered
   before any engine work like a negative count. *)
let checked_type k s =
  Result.map
    (fun () -> s)
    (Prospector.Query.check_type_name ~what:("field \"" ^ k ^ "\"") s)

let field_type j k = Result.bind (field_string j k) (checked_type k)

let field_type_opt j k =
  let* s = field_string_opt j k in
  match s with None -> Ok None | Some s -> Result.map Option.some (checked_type k s)

(* The grammar is closed: dropping a misspelled or foreign field would
   answer a different request than the one sent. *)
let only_fields ~what ~takes fields =
  match List.find_opt (fun (k, _) -> not (List.mem k takes)) fields with
  | None -> Ok ()
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown field %S in %s (it takes %s)" k what
           (String.concat ", " (List.map (Printf.sprintf "%S") takes)))

let parse_var = function
  | Obj fields as o ->
      let* () = only_fields ~what:"a var" ~takes:[ "name"; "type" ] fields in
      let* name = field_string o "name" in
      let* ty = field_type o "type" in
      Ok (name, ty)
  | _ -> Error "each var must be an object {\"name\", \"type\"}"

let parse_pair = function
  | Obj fields as o ->
      let* () = only_fields ~what:"a batch query" ~takes:[ "tin"; "tout" ] fields in
      let* tin = field_type o "tin" in
      let* tout = field_type o "tout" in
      Ok (tin, tout)
  | _ -> Error "each query must be an object {\"tin\", \"tout\"}"

(* Each op's own fields, besides "id" and "op". *)
let op_fields op =
  let settings = [ "max_results"; "slack"; "strategy"; "ranking"; "protocol" ] in
  match op with
  | "query" -> "tin" :: "tout" :: settings
  | "assist" -> "tout" :: "vars" :: settings
  | "batch" -> "queries" :: settings
  | "refine_start" -> "tin" :: "tout" :: "vars" :: settings
  | "lint" -> [ "tin"; "tout" ]
  | "refine_answer" -> [ "session"; "choice" ]
  | "refine_status" | "refine_stop" -> [ "session" ]
  | "reload" -> [ "japi"; "remove" ]
  | _ -> []

let rec map_m f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_m f xs in
      Ok (y :: ys)

let request_of_json j =
  match j with
  | Obj fields ->
      let id = Option.value (member "id" j) ~default:Null in
      let* op = field_string j "op" in
      let* req =
        match op with
        | "query" ->
            let* tin = field_type j "tin" in
            let* tout = field_type j "tout" in
            let* overrides = field_overrides j in
            Ok (Query { tin; tout; overrides })
        | "assist" ->
            let* tout = field_type j "tout" in
            let* vars =
              match member "vars" j with
              | Some (Arr vs) -> map_m parse_var vs
              | Some Null | None -> Ok []
              | Some _ -> Error "field \"vars\" must be an array"
            in
            let* overrides = field_overrides j in
            Ok (Assist { tout; vars; overrides })
        | "batch" ->
            let* pairs =
              match member "queries" j with
              | Some (Arr qs) -> map_m parse_pair qs
              | _ -> Error "field \"queries\" must be an array"
            in
            let* overrides = field_overrides j in
            Ok (Batch { pairs; overrides })
        | "lint" ->
            let* tin = field_type j "tin" in
            let* tout = field_type j "tout" in
            Ok (Lint { tin; tout })
        | "refine_start" ->
            let* tin = field_type_opt j "tin" in
            let* tout = field_type j "tout" in
            let* vars =
              match member "vars" j with
              | Some (Arr vs) -> map_m parse_var vs
              | Some Null | None -> Ok []
              | Some _ -> Error "field \"vars\" must be an array"
            in
            let* () =
              if tin <> None && vars <> [] then
                Error "refine_start takes either \"tin\" or \"vars\", not both"
              else Ok ()
            in
            let* overrides = field_overrides j in
            Ok (Refine_start { tin; tout; vars; overrides })
        | "refine_answer" ->
            let* session = field_string j "session" in
            let* choice =
              match member "choice" j with
              | Some (Int i) when i >= 0 -> Ok i
              | Some _ -> Error "field \"choice\" must be a non-negative integer"
              | None -> Error "missing field \"choice\""
            in
            Ok (Refine_answer { session; choice })
        | "refine_status" ->
            let* session = field_string j "session" in
            Ok (Refine_status { session })
        | "refine_stop" ->
            let* session = field_string j "session" in
            Ok (Refine_stop { session })
        | "reload" ->
            let* japi = field_string_opt j "japi" in
            let* remove =
              match member "remove" j with
              | Some (Arr rs) ->
                  map_m
                    (function
                      | Str s -> checked_type "remove" s
                      | _ -> Error "field \"remove\" must be an array of strings")
                    rs
              | Some Null | None -> Ok []
              | Some _ -> Error "field \"remove\" must be an array of strings"
            in
            let* () =
              (* Mined models are fixed at server start: rejecting the field
                 whole keeps a [japi] sent beside it from landing alone. *)
              if member "corpus" j <> None then
                Error
                  "field \"corpus\" is not supported: a reload takes \"japi\" \
                   and \"remove\"; the mined corpus is fixed at server start"
              else if japi = None && remove = [] then
                Error "reload needs at least one of \"japi\", \"remove\""
              else Ok ()
            in
            Ok (Reload { japi; remove })
        | "stats" -> Ok Stats
        | "health" -> Ok Health
        | "shutdown" -> Ok Shutdown
        | op -> Error (Printf.sprintf "unknown op %S" op)
      in
      let* () =
        only_fields ~what:(Printf.sprintf "a %S request" op)
          ~takes:("id" :: "op" :: op_fields op) fields
      in
      Ok { id; req }
  | _ -> Error "request must be a JSON object"

let envelope_to_json { id; req } =
  let id_field = match id with Null -> [] | id -> [ ("id", id) ] in
  let opt k = function Some i -> [ (k, Int i) ] | None -> [] in
  let opt_s k = function Some s -> [ (k, Str s) ] | None -> [] in
  let spelled k to_string v = opt_s k (Option.map to_string v) in
  let overrides o =
    opt "max_results" o.max_results @ opt "slack" o.slack
    @ spelled "strategy" Prospector.Query.strategy_to_string o.strategy
    @ spelled "ranking" Prospector.Query.ranking_to_string o.ranking
    @ spelled "protocol" Prospector.Query.protocol_to_string o.protocol
  in
  let vars_field = function
    | [] -> []
    | vs ->
        [
          ( "vars",
            Arr (List.map (fun (name, ty) -> Obj [ ("name", Str name); ("type", Str ty) ]) vs)
          );
        ]
  in
  let fields =
    match req with
    | Query { tin; tout; overrides = o } ->
        [ ("op", Str "query"); ("tin", Str tin); ("tout", Str tout) ] @ overrides o
    | Assist { tout; vars; overrides = o } ->
        [ ("op", Str "assist"); ("tout", Str tout) ] @ vars_field vars @ overrides o
    | Batch { pairs; overrides = o } ->
        [
          ("op", Str "batch");
          ( "queries",
            Arr
              (List.map
                 (fun (tin, tout) -> Obj [ ("tin", Str tin); ("tout", Str tout) ])
                 pairs) );
        ]
        @ overrides o
    | Lint { tin; tout } ->
        [ ("op", Str "lint"); ("tin", Str tin); ("tout", Str tout) ]
    | Refine_start { tin; tout; vars; overrides = o } ->
        [ ("op", Str "refine_start") ]
        @ opt_s "tin" tin
        @ [ ("tout", Str tout) ]
        @ vars_field vars @ overrides o
    | Refine_answer { session; choice } ->
        [
          ("op", Str "refine_answer");
          ("session", Str session);
          ("choice", Int choice);
        ]
    | Refine_status { session } ->
        [ ("op", Str "refine_status"); ("session", Str session) ]
    | Refine_stop { session } ->
        [ ("op", Str "refine_stop"); ("session", Str session) ]
    | Reload { japi; remove } ->
        [ ("op", Str "reload") ]
        @ opt_s "japi" japi
        @ (match remove with
          | [] -> []
          | rs -> [ ("remove", Arr (List.map (fun r -> Str r) rs)) ])
    | Stats -> [ ("op", Str "stats") ]
    | Health -> [ ("op", Str "health") ]
    | Shutdown -> [ ("op", Str "shutdown") ]
  in
  Obj (id_field @ fields)

(* ---------- responses ---------- *)

type error_code =
  | Bad_request
  | Unknown_op
  | Too_large
  | Busy
  | Timeout
  | Session_expired
  | Shutting_down
  | Internal

let error_code_string = function
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Too_large -> "too_large"
  | Busy -> "busy"
  | Timeout -> "timeout"
  | Session_expired -> "session_expired"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let ok_response ~id ~op fields =
  Obj ([ ("id", id); ("ok", Bool true); ("op", Str op) ] @ fields)

let error_response ~id code message =
  Obj
    [
      ("id", id);
      ("ok", Bool false);
      ( "error",
        Obj
          [
            ("code", Str (error_code_string code)); ("message", Str message);
          ] );
    ]
