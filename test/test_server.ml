(* The server layer: Proto's JSON codec round-trips arbitrary values
   (qcheck), typed request envelopes round-trip, the decoder rejects hostile
   input, Service answers concurrent clients byte-identically to a
   sequential engine, and the TCP transport survives malformed, oversized,
   and vanishing clients. *)

module Proto = Prospector_server.Proto
module Service = Prospector_server.Service
module Server = Prospector_server.Server
module Metrics = Prospector_server.Metrics
module Query = Prospector.Query
module Util = Prospector.Util
module Problems = Apidata.Problems

(* ---------- qcheck: JSON round-trip ---------- *)

(* Strings as arbitrary byte sequences: the codec's contract is that any
   OCaml string survives encode/decode, so the generator leans on quotes,
   backslashes, control bytes, and high bytes. *)
let gen_string =
  QCheck2.Gen.(
    let nasty = oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '\x00'; '\x1f'; '\x7f'; '\xc3'; '\xa9'; '\xff' ] in
    let byte = oneof [ nasty; printable; map Char.chr (int_range 0 255) ] in
    string_size ~gen:byte (int_range 0 24))

let gen_float =
  (* the encoder spells non-finite floats as null, so only finite values
     can round-trip; keep the generator inside the contract *)
  QCheck2.Gen.(
    map (fun f -> if Float.is_finite f then f else 0.0) float)

let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Proto.Null;
              map (fun b -> Proto.Bool b) bool;
              map (fun i -> Proto.Int i) int;
              map (fun f -> Proto.Float f) gen_float;
              map (fun s -> Proto.Str s) gen_string;
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun xs -> Proto.Arr xs) (list_size (int_range 0 4) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> Proto.Obj kvs)
                  (list_size (int_range 0 4) (pair gen_string (self (n / 2)))) );
            ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string j) = j" ~count:500 gen_json
    (fun j -> Proto.of_string (Proto.to_string j) = j)

let prop_parse_never_crashes =
  (* parse must return a value or an Error — never raise, never loop *)
  QCheck2.Test.make ~name:"parse never raises on arbitrary bytes" ~count:500
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))
    (fun s ->
      match Proto.parse s with Ok _ | Error _ -> true)

(* ---------- qcheck: request envelope round-trip ---------- *)

let gen_id =
  QCheck2.Gen.(
    oneof
      [
        return Proto.Null;
        map (fun i -> Proto.Int i) int;
        map (fun s -> Proto.Str s) gen_string;
      ])

let gen_opt_int = QCheck2.Gen.(opt (int_range 0 100))

(* The decoder validates every per-request setting into a typed value, so
   the codec round-trips exactly those. *)
let gen_overrides =
  QCheck2.Gen.(
    let* max_results = gen_opt_int and* slack = gen_opt_int in
    let* strategy = opt (oneofl [ Query.BestFirst; Query.Exhaustive ]) in
    return { Proto.max_results; slack; strategy })

(* Type names likewise: the decoder rejects a blank one
   ([test_blank_type_names]), so the round-trip covers the others. *)
let gen_type =
  QCheck2.Gen.map (fun s -> if String.trim s = "" then s ^ "T" else s) gen_string

let gen_request =
  QCheck2.Gen.(
    let name = string_size ~gen:printable (int_range 1 12) in
    let vars = list_size (int_range 0 3) (pair name gen_type) in
    oneof
      [
        (let* tin = gen_type and* tout = gen_type in
         let* overrides = gen_overrides in
         return (Proto.Query { tin; tout; overrides }));
        (let* tout = gen_type and* vars = vars and* overrides = gen_overrides in
         return (Proto.Assist { tout; vars; overrides }));
        (let* pairs = list_size (int_range 0 3) (pair gen_type gen_type) in
         let* overrides = gen_overrides in
         return (Proto.Batch { pairs; overrides }));
        (let* tout = gen_type and* overrides = gen_overrides in
         let* tin, vars =
           oneof [ map (fun tin -> (Some tin, [])) gen_type; map (fun vs -> (None, vs)) vars ]
         in
         return (Proto.Refine_start { tin; tout; vars; overrides }));
        (let* tin = gen_type and* tout = gen_type in
         return (Proto.Lint { tin; tout }));
        (let* japi = opt gen_string and* remove = list_size (int_range 0 3) gen_type in
         (* the decoder needs at least one of the two *)
         let japi = if japi = None && remove = [] then Some "" else japi in
         return (Proto.Reload { japi; remove }));
        return Proto.Stats;
        return Proto.Health;
        return Proto.Shutdown;
      ])

let gen_envelope =
  QCheck2.Gen.(
    let* id = gen_id and* req = gen_request in
    return { Proto.id; req })

let prop_envelope_roundtrip =
  QCheck2.Test.make ~name:"request_of_json (envelope_to_json e) = Ok e" ~count:300
    gen_envelope (fun e ->
      Proto.request_of_json (Proto.envelope_to_json e) = Ok e)

let prop_envelope_wire_roundtrip =
  (* the same, through the actual wire encoding *)
  QCheck2.Test.make ~name:"envelope survives the full wire cycle" ~count:300
    gen_envelope (fun e ->
      Proto.request_of_json (Proto.of_string (Proto.to_string (Proto.envelope_to_json e)))
      = Ok e)

(* Each op's fields besides "id" and "op", as proto.mli's grammar spells
   them. *)
let grammar (req : Proto.request) =
  let settings = [ "max_results"; "slack"; "strategy" ] in
  match req with
  | Proto.Query _ -> [ "tin"; "tout" ] @ settings
  | Proto.Assist _ -> [ "tout"; "vars" ] @ settings
  | Proto.Batch _ -> "queries" :: settings
  | Proto.Lint _ -> [ "tin"; "tout" ]
  | Proto.Refine_start _ -> [ "tin"; "tout"; "vars" ] @ settings
  | Proto.Refine_answer _ -> [ "session"; "choice" ]
  | Proto.Refine_status _ | Proto.Refine_stop _ -> [ "session" ]
  | Proto.Reload _ -> [ "japi"; "remove" ]
  | Proto.Stats | Proto.Health | Proto.Shutdown -> []

(* Near misses and other ops' fields, beside arbitrary strings. *)
let gen_stray_key =
  QCheck2.Gen.(
    oneof
      [
        gen_string;
        oneofl
          [
            "max_result"; "cluster"; "corpus"; "protocol"; "ranking"; "vars"; "tin";
            "tout"; "queries"; "session"; "choice"; "japi"; "remove"; "name"; "type";
            "Op"; "";
          ];
      ])

(* The decoder takes exactly the grammar: one field outside the op's is an
   error that names it, wherever it sits among the others. *)
let prop_stray_field_rejected =
  QCheck2.Test.make ~name:"a field outside the op's grammar is an error naming it"
    ~count:300
    QCheck2.Gen.(
      let* e = gen_envelope and* key = gen_stray_key and* at = int_range 0 8 in
      return (e, key, at))
    (fun (e, key, at) ->
      QCheck2.assume (not (List.mem key ("id" :: "op" :: grammar e.Proto.req)));
      match Proto.envelope_to_json e with
      | Proto.Obj fields -> (
          let before = List.filteri (fun i _ -> i < at) fields in
          let after = List.filteri (fun i _ -> i >= at) fields in
          match Proto.request_of_json (Proto.Obj (before @ [ (key, Proto.Int 1) ] @ after)) with
          | Ok _ -> false
          | Error msg -> Util.contains ~sub:(Printf.sprintf "%S" key) msg)
      | _ -> false)

(* ---------- qcheck: Util.contains vs a naive oracle ---------- *)

let naive_contains ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0

let prop_contains_matches_naive =
  QCheck2.Test.make ~name:"Util.contains agrees with the naive scan" ~count:1000
    QCheck2.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 30))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 5)))
    (fun (s, sub) -> Util.contains ~sub s = naive_contains ~sub s)

(* ---------- decoder edge cases (deterministic) ---------- *)

let test_escaping_cases () =
  let roundtrip s =
    match Proto.of_string (Proto.to_string (Proto.Str s)) with
    | Proto.Str s' -> Alcotest.(check string) (String.escaped s) s s'
    | _ -> Alcotest.fail "string did not decode to a string"
  in
  List.iter roundtrip
    [
      "";
      "plain";
      "quote \" backslash \\ slash /";
      "\n\r\t\b\012";
      "\x00\x01\x1f";
      "\x7f\x80\xff";
      "caf\xc3\xa9";
      String.make 3 '\\';
    ];
  let decodes input expect =
    match Proto.of_string input with
    | Proto.Str s -> Alcotest.(check string) input expect s
    | _ -> Alcotest.fail "expected a string"
  in
  (* \u escapes expand to UTF-8, surrogate pairs included *)
  decodes {|"\u0041"|} "A";
  decodes {|"\u00e9"|} "\xc3\xa9";
  decodes {|"\u20ac"|} "\xe2\x82\xac";
  decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  decodes {|"\u0000"|} "\x00";
  decodes {|"a\/b"|} "a/b"

let expect_parse_error input =
  match Proto.parse input with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed input %S" input)

let test_decoder_rejects () =
  List.iter expect_parse_error
    [
      "";
      "tru";
      "nul";
      "{";
      "[1, 2";
      "{\"a\" 1}";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"\\u12";
      "\"\\ud800\"";  (* lone high surrogate *)
      "\"\\udc00\"";  (* lone low surrogate *)
      "\"\\ud800\\u0041\"";  (* high surrogate paired with a non-surrogate *)
      "1.2.3";
      "1e";
      "- 1";
      "{} garbage";
      "[1] [2]";
      "01a";
    ];
  (* nesting bound: max_depth is enforced, one below it is fine *)
  let nested n = String.make n '[' ^ String.make n ']' in
  (match Proto.parse (nested Proto.max_depth) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("rejected legal nesting: " ^ m));
  expect_parse_error (nested (Proto.max_depth + 2))

let test_number_decoding () =
  let check_is input expect =
    Alcotest.(check bool) input true (Proto.of_string input = expect)
  in
  check_is "0" (Proto.Int 0);
  check_is "-7" (Proto.Int (-7));
  check_is "1.5" (Proto.Float 1.5);
  check_is "1e3" (Proto.Float 1000.0);
  check_is "-2.5e-1" (Proto.Float (-0.25));
  check_is (string_of_int max_int) (Proto.Int max_int);
  check_is (string_of_int min_int) (Proto.Int min_int);
  (* magnitude beyond the int range degrades to float, not an error *)
  match Proto.of_string "123456789012345678901234567890" with
  | Proto.Float _ -> ()
  | _ -> Alcotest.fail "big integer literal should decode as a float"

(* ---------- the service: shared fixtures ---------- *)

let world = lazy (Apidata.Api.default_graph (), Apidata.Api.hierarchy ())

let fresh_service ?deadline_s () =
  let graph, hierarchy = Lazy.force world in
  Service.create ?deadline_s ~engine:(Query.engine ~graph ~hierarchy ()) ()

let line_of req = Proto.to_string (Proto.envelope_to_json { Proto.id = Proto.Null; req })

let query_line ?max_results ?slack tin tout =
  line_of
    (Proto.Query
       {
         tin;
         tout;
         overrides = { Proto.defaults with max_results; slack };
       })

let field path j =
  List.fold_left
    (fun acc k -> match acc with Some o -> Proto.member k o | None -> None)
    (Some j) path

let response_ok line =
  match Proto.parse line with
  | Error m -> Alcotest.fail ("response is not JSON: " ^ m)
  | Ok j -> (
      match Proto.member "ok" j with
      | Some (Proto.Bool b) -> (b, j)
      | _ -> Alcotest.fail ("response has no ok field: " ^ line))

let expect_error_code line code =
  let ok, j = response_ok line in
  Alcotest.(check bool) "error reply" false ok;
  match field [ "error"; "code" ] j with
  | Some (Proto.Str c) -> Alcotest.(check string) "error code" code c
  | _ -> Alcotest.fail ("no error.code in " ^ line)

let test_service_errors () =
  let svc = fresh_service () in
  expect_error_code (Service.handle_line svc "not json at all") "bad_request";
  expect_error_code (Service.handle_line svc "{\"op\": 42}") "bad_request";
  expect_error_code (Service.handle_line svc "{\"op\": \"frobnicate\"}") "unknown_op";
  expect_error_code
    (Service.handle_line svc "{\"op\": \"query\", \"tin\": \"void\"}")
    "bad_request";
  (* negative counts are the requester's mistake, on every op that takes
     them — never an internal error, never a silent empty answer *)
  List.iter
    (fun line -> expect_error_code (Service.handle_line svc line) "bad_request")
    [
      "{\"op\": \"query\", \"tin\": \"void\", \"tout\": \"java.io.File\", \"max_results\": -1}";
      "{\"op\": \"query\", \"tin\": \"void\", \"tout\": \"java.io.File\", \"slack\": -5}";
      "{\"op\": \"assist\", \"tout\": \"java.io.File\", \"max_results\": -1}";
      "{\"op\": \"batch\", \"queries\": [], \"slack\": -1}";
      "{\"op\": \"refine_start\", \"tout\": \"java.io.File\", \"max_results\": -2}";
    ];
  (* so is a misspelled strategy, on every op that takes one: the decoder
     rejects it before any engine work *)
  List.iter
    (fun (op, fields) ->
      expect_error_code
        (Service.handle_line svc
           (Printf.sprintf "{\"op\": \"%s\", %s, \"strategy\": \"bogus\"}" op fields))
        "bad_request")
    [
      ("query", "\"tin\": \"void\", \"tout\": \"java.io.File\"");
      ("assist", "\"tout\": \"java.io.File\"");
      ("batch", "\"queries\": []");
      ("refine_start", "\"tin\": \"void\", \"tout\": \"java.io.File\"");
    ];
  (* an empty type name is a bad_request ([test_blank_type_names]) *)
  expect_error_code
    (Service.handle_line svc "{\"op\": \"query\", \"tin\": \"\", \"tout\": \"\"}")
    "bad_request";
  (* the service survived every one: a normal request still works *)
  let ok, j = response_ok (Service.handle_line svc "{\"op\": \"health\"}") in
  Alcotest.(check bool) "health after garbage" true ok;
  match field [ "status" ] j with
  | Some (Proto.Str "ok") -> ()
  | _ -> Alcotest.fail "health status"

(* A blank type name is the requester's mistake on each of the six ops
   that take one, in every type-name field: a bad_request that names the
   field, never an internal error. A reload that carries a corpus is
   rejected the same way, whatever else it carries. *)
let test_blank_type_names () =
  let svc = fresh_service () in
  List.iter
    (fun (field, line) ->
      let reply = Service.handle_line svc line in
      expect_error_code reply "bad_request";
      Alcotest.(check bool)
        (Printf.sprintf "the reply names %S: %s" field reply)
        true
        (Util.contains ~sub:(Printf.sprintf "field \\\"%s\\\"" field) reply))
    [
      ("tin", {|{"op": "query", "tin": "", "tout": "java.io.File"}|});
      ("tout", {|{"op": "query", "tin": "void", "tout": " "}|});
      ("tout", {|{"op": "assist", "tout": ""}|});
      ("type", {|{"op": "assist", "tout": "java.io.File", "vars": [{"name": "x", "type": ""}]}|});
      ("tin", {|{"op": "batch", "queries": [{"tin": "void", "tout": "java.io.File"}, {"tin": "", "tout": "java.io.File"}]}|});
      ("tout", {|{"op": "batch", "queries": [{"tin": "void", "tout": "\t"}]}|});
      ("tin", {|{"op": "lint", "tin": "", "tout": "java.io.File"}|});
      ("tout", {|{"op": "lint", "tin": "void", "tout": ""}|});
      ("tin", {|{"op": "refine_start", "tin": "", "tout": "java.io.File"}|});
      ("tout", {|{"op": "refine_start", "tout": "", "vars": [{"name": "x", "type": "java.io.File"}]}|});
      ("type", {|{"op": "refine_start", "tout": "java.io.File", "vars": [{"name": "x", "type": "  "}]}|});
      ("remove", {|{"op": "reload", "remove": [""]}|});
      ("remove", {|{"op": "reload", "japi": "package p; class K { }", "remove": ["java.io.File", " "]}|});
      ("corpus", {|{"op": "reload", "corpus": "package c; class K { }"}|});
      ("corpus", {|{"op": "reload", "japi": "package p; class K { }", "corpus": "package c; class K { }"}|});
    ];
  let stats = Service.handle_line svc {|{"op": "stats"}|} in
  Alcotest.(check bool) ("no reload applied: " ^ stats) false
    (Util.contains ~sub:"reloads_applied" stats)

(* A [.japi] lexer error travels inside the reload reply's JSON message,
   so the reply must be valid UTF-8 whatever bytes the delta held: a
   non-ASCII character is quoted whole, a stray byte as \xNN. *)
let test_reload_lexer_errors_utf8 () =
  let svc = fresh_service () in
  List.iter
    (fun (japi, shown) ->
      let reply =
        Service.handle_line svc
          (Proto.to_string (Proto.Obj [ ("op", Proto.Str "reload"); ("japi", Proto.Str japi) ]))
      in
      expect_error_code reply "bad_request";
      Alcotest.(check bool) ("valid UTF-8: " ^ String.escaped reply) true
        (String.is_valid_utf_8 reply);
      Alcotest.(check bool) ("quotes the character: " ^ reply) true
        (Util.contains ~sub:(Printf.sprintf "unexpected character '%s'" shown) reply))
    [ ("package p; class Caf\xc3\xa9 { }", "\xc3\xa9"); ("package p; class A\xff { }", "\\\\xff") ]

let test_deadline_timeout () =
  (* deadline 0: every engine-touching request exceeds it deterministically *)
  let svc = fresh_service ~deadline_s:0.0 () in
  let reply =
    Service.handle_line svc (query_line "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry")
  in
  expect_error_code reply "timeout";
  (* and the error shows up in the metrics *)
  let ops = Metrics.ops (Service.metrics svc) in
  match List.assoc_opt "query" ops with
  | Some s ->
      Alcotest.(check int) "one query recorded" 1 s.Metrics.count;
      Alcotest.(check int) "recorded as an error" 1 s.Metrics.errors
  | None -> Alcotest.fail "no query metrics"

let test_shutdown_flag () =
  let svc = fresh_service () in
  Alcotest.(check bool) "fresh service not draining" false (Service.shutdown_requested svc);
  let ok, j = response_ok (Service.handle_line svc "{\"op\": \"shutdown\"}") in
  Alcotest.(check bool) "shutdown acknowledged" true ok;
  (match field [ "status" ] j with
  | Some (Proto.Str "draining") -> ()
  | _ -> Alcotest.fail "shutdown status");
  Alcotest.(check bool) "draining after shutdown" true (Service.shutdown_requested svc)

(* ---------- concurrency: N threads = sequential, byte for byte ---------- *)

let workload_lines () =
  let qs =
    List.filteri (fun i _ -> i < 8) Problems.all
    |> List.map (fun (p : Problems.t) -> query_line p.Problems.tin p.Problems.tout)
  in
  let extras =
    [
      query_line ~max_results:3 "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry";
      line_of
        (Proto.Batch
           {
             pairs = [ ("void", "org.eclipse.ui.texteditor.DocumentProviderRegistry") ];
             overrides = { Proto.defaults with max_results = Some 2 };
           });
      line_of
        (Proto.Lint
           { tin = "void"; tout = "org.eclipse.ui.texteditor.DocumentProviderRegistry" });
    ]
  in
  qs @ extras

let test_concurrent_equals_sequential () =
  let lines = Array.of_list (workload_lines ()) in
  let n = Array.length lines in
  (* the sequential truth, from its own engine over the same graph *)
  let seq = fresh_service () in
  let expected = Array.map (Service.handle_line seq) lines in
  (* one shared service, hammered from eight threads in rotated orders *)
  let shared = fresh_service () in
  let n_threads = 8 in
  let got = Array.init n_threads (fun _ -> Array.make n "") in
  let threads =
    List.init n_threads (fun k ->
        Thread.create
          (fun () ->
            for step = 0 to n - 1 do
              let i = (step + k) mod n in
              got.(k).(i) <- Service.handle_line shared lines.(i)
            done)
          ())
  in
  List.iter Thread.join threads;
  for k = 0 to n_threads - 1 do
    for i = 0 to n - 1 do
      Alcotest.(check string)
        (Printf.sprintf "thread %d, request %d" k i)
        expected.(i) got.(k).(i)
    done
  done;
  (* and the responses really are Query.run's answers: spot-check one *)
  let graph, hierarchy = Lazy.force world in
  let q = Query.query "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry" in
  let plain = Query.run ~frozen:(Query.freeze graph) ~hierarchy q in
  let _, j = response_ok (Service.handle_line shared (query_line "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry")) in
  (match field [ "results" ] j with
  | Some (Proto.Arr rs) ->
      Alcotest.(check int) "result count matches Query.run" (List.length plain)
        (List.length rs);
      List.iteri
        (fun i (r, item) ->
          match Proto.member "code" item with
          | Some (Proto.Str code) ->
              Alcotest.(check string)
                (Printf.sprintf "result %d code" i)
                r.Query.code code
          | _ -> Alcotest.fail "result without code")
        (List.combine plain rs)
  | _ -> Alcotest.fail "query response without results");
  (* every thread's every request hit the one shared engine *)
  Alcotest.(check int) "metrics counted every request"
    ((n_threads * n) + 1)
    (Metrics.total_requests (Service.metrics shared))

(* ---------- reads beside reloads ---------- *)

(* The rank order of (p.Src, p.Base) hangs on p.A's supertype depth. With
   [A extends Base], toA, toB and toC tie on every numeric component and
   sort by text; with [A extends Mid], toA returns the most specific type
   and sorts last, and Src gains toE. Ranking either model's candidates
   with the other's hierarchy changes both the set and the order, so such
   a reply matches neither model's cold answer. *)
let flip_model ~deep =
  Printf.sprintf
    "package p;\nclass Base { }\nclass Mid extends Base { }\nclass A extends %s { }\n\
     class B extends Base { }\nclass C extends Base { }\nclass E extends Base { }\n\
     class Src { A toA(); B toB(); C toC(); %s}\n"
    (if deep then "Mid" else "Base")
    (if deep then "E toE(); " else "")

let flip_service ~deep =
  let h = Japi.Loader.load_string (flip_model ~deep) in
  Service.create
    ~engine:(Query.engine ~graph:(Prospector.Sig_graph.build h) ~hierarchy:h ())
    ()

(* One domain reads while another reloads the model back and forth. Each
   read must answer wholly from one model, never from a snapshot of one
   and the hierarchy of the other, and never fail. A batch answers every
   pair from the snapshot it took at the start, so it must not mix models
   even when a reload lands mid-batch. *)
let test_reads_beside_reloads () =
  let reads =
    [|
      query_line "p.Src" "p.Base";
      line_of
        (Proto.Batch { pairs = List.init 8 (fun _ -> ("p.Src", "p.Base")); overrides = Proto.defaults });
    |]
  in
  let cold ~deep = Array.map (Service.handle_line (flip_service ~deep)) reads in
  let shallow = cold ~deep:false and deep = cold ~deep:true in
  Alcotest.(check bool) "the two models answer differently" true (shallow.(0) <> deep.(0));
  let svc = flip_service ~deep:false in
  let reload ~deep =
    Printf.sprintf "{\"op\": \"reload\", \"japi\": %s}"
      (Proto.to_string (Proto.Str (flip_model ~deep)))
  in
  let reloads = 1000 in
  let stop = Atomic.make false in
  let reloader =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            List.init reloads (fun i ->
                fst (response_ok (Service.handle_line svc (reload ~deep:(i mod 2 = 0)))))))
  in
  let reader =
    Domain.spawn (fun () ->
        let rec go n odd =
          if Atomic.get stop then (n, List.rev odd)
          else
            let i = n mod Array.length reads in
            let r = Service.handle_line svc reads.(i) in
            go (n + 1) (if r = shallow.(i) || r = deep.(i) then odd else r :: odd)
        in
        go 0 [])
  in
  let applied = Domain.join reloader in
  let answered, odd = Domain.join reader in
  Alcotest.(check int) "every reload applied" reloads
    (List.length (List.filter Fun.id applied));
  Alcotest.(check bool) "the reader overlapped the reloads" true (answered > 0);
  Alcotest.(check (list string)) "every reply is one model's cold answer" [] odd;
  Alcotest.(check string) "the last model answers" shallow.(0)
    (Service.handle_line svc reads.(0))

(* ---------- metrics ---------- *)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  (* 100 samples at ~1 ms, 5 at ~100 ms: p50 stays small, p99 jumps *)
  for _ = 1 to 100 do
    Metrics.record m ~op:"query" ~ok:true 0.001
  done;
  for _ = 1 to 5 do
    Metrics.record m ~op:"query" ~ok:false 0.1
  done;
  match List.assoc_opt "query" (Metrics.ops m) with
  | None -> Alcotest.fail "no query stats"
  | Some s ->
      Alcotest.(check int) "count" 105 s.Metrics.count;
      Alcotest.(check int) "errors" 5 s.Metrics.errors;
      Alcotest.(check bool) "p50 near 1 ms" true (s.Metrics.p50_ms <= 2.0);
      Alcotest.(check bool) "p99 sees the slow tail" true (s.Metrics.p99_ms >= 64.0);
      Alcotest.(check bool) "max >= p99" true (s.Metrics.max_ms >= s.Metrics.p99_ms /. 2.0);
      Alcotest.(check int) "total" 105 (Metrics.total_requests m)

(* Every reported percentile lies between the exact nearest-rank
   percentile of the samples and 12.5% above it, and never above the
   largest sample. The samples span 1 µs to
   1000 s, inside the resolved octaves, and one in four repeats an earlier
   one, so ties straddle the ranks. *)
let prop_metrics_percentiles_bounded =
  QCheck2.Test.make ~name:"reported percentiles lie in [exact, 1.125 x exact]"
    ~count:500
    QCheck2.Gen.(
      let* fresh = list_size (int_range 1 300) (float_range (-6.) 3.) in
      let* reuse = list_size (int_range 0 100) (int_range 0 299) in
      let seconds = Array.of_list (List.map (fun u -> 10. ** u) fresh) in
      return
        (Array.to_list seconds
        @ List.map (fun i -> seconds.(i mod Array.length seconds)) reuse))
    (fun samples ->
      let m = Metrics.create () in
      List.iter (fun s -> Metrics.record m ~op:"query" ~ok:true s) samples;
      let sorted = Array.of_list (List.map (fun s -> s *. 1000.0) samples) in
      Array.sort Float.compare sorted;
      let exact q =
        let n = float_of_int (Array.length sorted) in
        let need = int_of_float (ceil (q *. n)) in
        sorted.(max 1 need - 1)
      in
      let s = List.assoc "query" (Metrics.ops m) in
      List.for_all
        (fun (q, reported) ->
          let x = exact q in
          x <= reported
          && reported <= 1.125 *. x
          && reported <= s.Metrics.max_ms)
        [
          (0.50, s.Metrics.p50_ms);
          (0.95, s.Metrics.p95_ms);
          (0.99, s.Metrics.p99_ms);
        ])

(* ---------- the TCP transport ---------- *)

let connect port =
  Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let send_recv (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let test_tcp_end_to_end () =
  let service = fresh_service () in
  let config =
    { Server.default_config with Server.port = 0; workers = 2; max_request_bytes = 2048 }
  in
  let srv = Server.create ~config service in
  Server.start srv;
  let port = Server.port srv in
  Alcotest.(check bool) "bound an ephemeral port" true (port > 0);
  (* a client that connects and vanishes must not hurt anyone *)
  let ic0, _ = connect port in
  Unix.close (Unix.descr_of_in_channel ic0);
  let conn = connect port in
  (* health *)
  let ok, j = response_ok (send_recv conn "{\"op\": \"health\"}") in
  Alcotest.(check bool) "tcp health ok" true ok;
  (match field [ "status" ] j with
  | Some (Proto.Str "ok") -> ()
  | _ -> Alcotest.fail "tcp health status");
  (* a query over TCP = the same query straight through a service *)
  let qline = query_line "void" "org.eclipse.ui.texteditor.DocumentProviderRegistry" in
  let expected = Service.handle_line (fresh_service ()) qline in
  Alcotest.(check string) "tcp query byte-identical" expected (send_recv conn qline);
  (* malformed line: error reply, connection lives *)
  expect_error_code (send_recv conn "][") "bad_request";
  (* oversized line: too_large reply, connection still lives *)
  let big = "{\"op\": \"health\", \"pad\": \"" ^ String.make 4096 'x' ^ "\"}" in
  expect_error_code (send_recv conn big) "too_large";
  let ok, _ = response_ok (send_recv conn "{\"op\": \"health\"}") in
  Alcotest.(check bool) "health after oversize" true ok;
  (* stats over the wire: sane structure, live counters *)
  let ok, j = response_ok (send_recv conn "{\"op\": \"stats\"}") in
  Alcotest.(check bool) "tcp stats ok" true ok;
  (match field [ "graph"; "nodes" ] j with
  | Some (Proto.Int nodes) -> Alcotest.(check bool) "graph nonempty" true (nodes > 0)
  | _ -> Alcotest.fail "stats without graph.nodes");
  (match field [ "requests" ] j with
  | Some (Proto.Int r) -> Alcotest.(check bool) "requests counted" true (r >= 4)
  | _ -> Alcotest.fail "stats without requests");
  (* graceful drain over the wire *)
  let ok, j = response_ok (send_recv conn "{\"op\": \"shutdown\"}") in
  Alcotest.(check bool) "tcp shutdown ok" true ok;
  (match field [ "status" ] j with
  | Some (Proto.Str "draining") -> ()
  | _ -> Alcotest.fail "tcp shutdown status");
  Server.wait srv

(* A pipelining client must not wait on Nagle's algorithm: the server's
   end of every accepted connection has TCP_NODELAY set. The server runs
   in this process, so its end is one of our own descriptors — the socket
   whose peer is the client's address. OCaml's Unix library represents a
   descriptor as its number on Unix systems, which is what lets the test
   reach it through [/proc/self/fd]; where that directory is missing
   (not Linux) the check has nothing to look at and passes. *)
let test_tcp_nodelay () =
  let srv =
    Server.create ~config:{ Server.default_config with Server.port = 0; workers = 1 }
      (fresh_service ())
  in
  Server.start srv;
  let ((ic, _) as conn) = connect (Server.port srv) in
  let ok, _ = response_ok (send_recv conn "{\"op\": \"health\"}") in
  Alcotest.(check bool) "health ok" true ok;
  let client = Unix.getsockname (Unix.descr_of_in_channel ic) in
  (if Sys.file_exists "/proc/self/fd" then
     let server_ends =
       Sys.readdir "/proc/self/fd"
       |> Array.to_list
       |> List.filter_map (fun n ->
              let fd : Unix.file_descr = Obj.magic (int_of_string n) in
              match Unix.getpeername fd with
              | peer when peer = client -> Some fd
              | _ | (exception Unix.Unix_error _) -> None)
     in
     Alcotest.(check int) "the server's end is found" 1 (List.length server_ends);
     Alcotest.(check (list bool)) "TCP_NODELAY on the accepted socket" [ true ]
       (List.map (fun fd -> Unix.getsockopt fd Unix.TCP_NODELAY) server_ends));
  ignore (send_recv conn "{\"op\": \"shutdown\"}");
  Server.wait srv

(* ---------- runner ---------- *)

let () =
  Alcotest.run "server"
    [
      ( "proto-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_json_roundtrip;
            prop_parse_never_crashes;
            prop_envelope_roundtrip;
            prop_envelope_wire_roundtrip;
            prop_stray_field_rejected;
            prop_contains_matches_naive;
          ] );
      ( "proto-edges",
        [
          Alcotest.test_case "escaping round-trips" `Quick test_escaping_cases;
          Alcotest.test_case "decoder rejects hostile input" `Quick test_decoder_rejects;
          Alcotest.test_case "number decoding" `Quick test_number_decoding;
        ] );
      ( "service",
        [
          Alcotest.test_case "error replies" `Quick test_service_errors;
          Alcotest.test_case "blank type names are bad requests" `Quick test_blank_type_names;
          Alcotest.test_case "reload lexer errors are valid UTF-8" `Quick
            test_reload_lexer_errors_utf8;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "shutdown flag" `Quick test_shutdown_flag;
          Alcotest.test_case "reads beside reloads answer one model" `Quick
            test_reads_beside_reloads;
          Alcotest.test_case "concurrent = sequential" `Quick
            test_concurrent_equals_sequential;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          QCheck_alcotest.to_alcotest prop_metrics_percentiles_bounded;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "end to end" `Quick test_tcp_end_to_end;
          Alcotest.test_case "accepted sockets disable Nagle" `Quick test_tcp_nodelay;
        ] );
    ]
