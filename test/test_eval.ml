(* The spec-by-example layer: the evaluator's semantic stubs and its fuel
   bound, the probe engine's partition invariants (qcheck: a chosen probe
   never produces an empty branch), session convergence, the Table 1
   end-to-end refine runs (the survivor must be the original rank-1), and
   the server's refine ops — session table, TTL eviction, drain behavior,
   metrics coverage. *)

module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname
module Member = Javamodel.Member
module Elem = Prospector.Elem
module Jungloid = Prospector.Jungloid
module Query = Prospector.Query
module Value = Prospector_eval.Value
module Evaluator = Prospector_eval.Evaluator
module Probe = Prospector_eval.Probe
module Session = Prospector_eval.Session
module Proto = Prospector_server.Proto
module Service = Prospector_server.Service
module Metrics = Prospector_server.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- building blocks ---------- *)

let string_q = Qname.of_string "java.lang.String"
let string_t = Jtype.Ref string_q

let string_meth name ret =
  Elem.Instance_call
    {
      owner = string_q;
      meth = Member.meth name ~params:[] ~ret;
      input = Elem.Receiver;
    }

let trim = string_meth "trim" string_t
let lower = string_meth "toLowerCase" string_t
let upper = string_meth "toUpperCase" string_t
let length = string_meth "length" (Jtype.Prim Jtype.Int)

(* An API element no stub layer models: the provenance layer covers
   reference-returning calls, so going dark takes an unknown method with a
   primitive result. *)
let dark =
  Elem.Instance_call
    {
      owner = Qname.of_string "com.example.Widget";
      meth = Member.meth "frobnicate" ~params:[] ~ret:(Jtype.Prim Jtype.Int);
      input = Elem.Receiver;
    }

let chain elems = Jungloid.make ~input:string_t elems

(* ---------- evaluator units ---------- *)

let test_string_stubs () =
  match Evaluator.eval ~input:(Value.Str "  Mixed Case  ") (chain [ trim; lower ]) with
  | Evaluator.Done (Value.Str s) -> check_string "trim then lower" "mixed case" s
  | _ -> Alcotest.fail "expected a concrete string"

let test_length_stub () =
  match Evaluator.eval ~input:(Value.Str "abcd") (chain [ length ]) with
  | Evaluator.Done (Value.Int n) -> check_int "length" 4 n
  | _ -> Alcotest.fail "expected a concrete int"

let test_fuel_bound () =
  let j = chain [ trim; lower; upper ] in
  (match Evaluator.eval ~fuel:2 ~input:(Value.Str "x") j with
  | Evaluator.Fuel_exhausted -> ()
  | Evaluator.Done _ -> Alcotest.fail "fuel 2 must not finish a 3-step chain");
  match Evaluator.eval ~fuel:3 ~input:(Value.Str "x") j with
  | Evaluator.Done _ -> ()
  | Evaluator.Fuel_exhausted -> Alcotest.fail "fuel 3 finishes a 3-step chain"

let test_opaque_absorbs () =
  (* an unmodeled element goes dark, and dark stays dark downstream *)
  (match Evaluator.eval ~input:(Value.Str "x") (chain [ dark ]) with
  | Evaluator.Done v -> check_bool "unmodeled is opaque" true (Value.is_opaque v)
  | _ -> Alcotest.fail "expected Done");
  match Evaluator.eval ~input:(Value.Str "x") (chain [ dark; trim ]) with
  | Evaluator.Done v ->
      check_bool "opaque absorbs a modeled step" true (Value.is_opaque v)
  | _ -> Alcotest.fail "expected Done"

let test_widen_invisible_downcast_visible () =
  let widen = Elem.Widen { from_ = string_t; to_ = string_t } in
  (match Evaluator.eval ~input:(Value.Str "x") (chain [ widen ]) with
  | Evaluator.Done (Value.Str s) -> check_string "widen is the identity" "x" s
  | _ -> Alcotest.fail "widen must not change the value");
  let cast =
    Elem.Downcast { from_ = string_t; to_ = Jtype.ref_of_string "com.example.Sub" }
  in
  match Evaluator.eval ~input:(Value.Str "x") (chain [ cast ]) with
  | Evaluator.Done (Value.Obj { cls; _ }) ->
      check_string "downcast names the static type" "(Sub)" cls
  | _ -> Alcotest.fail "downcast must wrap the value"

(* ---------- probe: qcheck partition invariants ---------- *)

(* Random candidate sets over a small pool of string chains (some of which
   go dark through the unmodeled element); the chosen probe must always be
   a genuine partition of the candidate list: every branch non-empty, every
   candidate in exactly one branch, at least two branches. *)

let pool = [| [ trim ]; [ lower ]; [ upper ]; [ length ]; [ trim; lower ];
              [ upper; length ]; [ dark ]; [ dark; trim ]; [ trim; upper ] |]

let gen_candidates =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* picks = list_size (return n) (int_range 0 (Array.length pool - 1)) in
    return
      (List.map
         (fun i -> { Probe.key = "input"; jungloid = chain pool.(i) })
         picks))

let prop_no_empty_branch =
  QCheck2.Test.make ~count:300
    ~name:"chosen probe partitions a non-singleton candidate set" gen_candidates
    (fun cands ->
      match Probe.choose cands with
      | None -> true
      | Some q ->
          let n = List.length cands in
          let members =
            List.concat_map (fun (g : Probe.group) -> g.Probe.members) q.Probe.groups
          in
          List.length q.Probe.groups >= 2
          && List.for_all (fun (g : Probe.group) -> g.Probe.members <> []) q.Probe.groups
          && List.sort compare members = List.init n Fun.id)

(* ---------- sessions over real query results ---------- *)

let world = lazy (Apidata.Api.default_graph (), Apidata.Api.hierarchy ())

let results_for tin tout =
  let graph, hierarchy = Lazy.force world in
  Query.run ~frozen:(Query.freeze graph) ~hierarchy (Query.query tin tout)

let test_session_converges () =
  let results = results_for "java.io.File" "java.io.BufferedReader" in
  check_bool "query gave several candidates" true (List.length results >= 4);
  let cands = List.map (fun result -> { Session.source = None; result }) results in
  let rec drive sess =
    if Session.converged sess then sess
    else
      match Simstudy.Programmer.answer_probe sess ~desired:(List.hd results) with
      | None -> sess
      | Some choice -> (
          match Session.answer sess ~choice with
          | Ok sess' -> drive sess'
          | Error _ -> Alcotest.fail "programmer picked an invalid choice")
  in
  let final = drive (Session.start cands) in
  check_bool "converged" true (Session.converged final);
  check_bool "within k - 1 answers" true
    (Session.questions_asked final <= List.length cands - 1);
  check_int "rank-1 survives" 0 (Session.best_rank final)

let test_refine_table1_e2e () =
  let graph, hierarchy = Lazy.force world in
  let runs = Simstudy.Study_sim.refine_table1 ~graph ~hierarchy () in
  check_bool "table 1 yields sessions" true (List.length runs >= 15);
  List.iter
    (fun ((p : Apidata.Problems.t), (r : Simstudy.Study_sim.refine_run)) ->
      let label what = Printf.sprintf "problem %d: %s" p.Apidata.Problems.id what in
      check_bool (label "survivor is rank-1") true r.Simstudy.Study_sim.to_rank1;
      if r.Simstudy.Study_sim.candidates >= 4 then
        check_int (label "fully disambiguated") 1 r.Simstudy.Study_sim.live_at_end;
      let bound =
        int_of_float
          (ceil (log (float_of_int (max 1 r.Simstudy.Study_sim.candidates)) /. log 2.))
        + 2
      in
      check_bool (label "questions within the log2 bound") true
        (r.Simstudy.Study_sim.questions <= bound))
    runs

(* ---------- the server's refine ops ---------- *)

let fresh_service ?session_ttl_s () =
  let graph, hierarchy = Lazy.force world in
  Service.create ?session_ttl_s ~engine:(Query.engine ~graph ~hierarchy ()) ()

let line_of req = Proto.to_string (Proto.envelope_to_json { Proto.id = Proto.Null; req })

let refine_start ?tin ?(vars = []) tout =
  line_of
    (Proto.Refine_start
       {
         tin;
         tout;
         vars;
         overrides = Proto.defaults;
       })

let parse_ok reply =
  match Proto.parse reply with
  | Error e -> Alcotest.fail ("unparsable reply: " ^ e)
  | Ok j -> j

let str_field k j =
  match Proto.member k j with Some (Proto.Str s) -> s | _ -> Alcotest.fail ("no field " ^ k)

let error_code reply =
  match Option.bind (Proto.member "error" (parse_ok reply)) (Proto.member "code") with
  | Some (Proto.Str c) -> c
  | _ -> Alcotest.fail "expected an error reply"

let test_service_refine_flow () =
  let svc = fresh_service () in
  let j =
    parse_ok
      (Service.handle_line svc (refine_start ~tin:"java.io.File" "java.io.BufferedReader"))
  in
  let sid = str_field "session" j in
  check_bool "a question is pending" true (Proto.member "question" j <> None);
  check_int "one live session" 1 (Service.live_sessions svc);
  (* the gauge mirrors the table *)
  check_bool "gauge set" true
    (List.mem_assoc "refine_sessions" (Metrics.gauges (Service.metrics svc)));
  (* follow branch 0 until convergence; k candidates bound the loop *)
  let rec drive n =
    if n = 0 then Alcotest.fail "session never converged"
    else
      let j =
        parse_ok (Service.handle_line svc (line_of (Proto.Refine_answer { session = sid; choice = 0 })))
      in
      match Proto.member "converged" j with
      | Some (Proto.Bool true) -> j
      | _ -> drive (n - 1)
  in
  let final = drive 16 in
  check_bool "a result is attached" true (Proto.member "result" final <> None);
  (* status echoes the converged state without advancing anything *)
  let status =
    parse_ok (Service.handle_line svc (line_of (Proto.Refine_status { session = sid })))
  in
  check_bool "status converged" true
    (Proto.member "converged" status = Some (Proto.Bool true));
  (* a converged session has no pending question to answer *)
  check_string "answering a converged session" "bad_request"
    (error_code (Service.handle_line svc (line_of (Proto.Refine_answer { session = sid; choice = 0 }))));
  (* stop frees the slot; later ops see session_expired *)
  ignore (Service.handle_line svc (line_of (Proto.Refine_stop { session = sid })));
  check_int "no live sessions" 0 (Service.live_sessions svc);
  check_string "stopped session is expired" "session_expired"
    (error_code (Service.handle_line svc (line_of (Proto.Refine_status { session = sid }))))

let test_service_refine_ttl () =
  (* ttl 0: the session is evicted by the sweep at the next refine op *)
  let svc = fresh_service ~session_ttl_s:0.0 () in
  let j =
    parse_ok
      (Service.handle_line svc (refine_start ~tin:"java.io.File" "java.io.BufferedReader"))
  in
  let sid = str_field "session" j in
  check_string "evicted session answers session_expired" "session_expired"
    (error_code (Service.handle_line svc (line_of (Proto.Refine_answer { session = sid; choice = 0 }))))

let test_service_refine_drain () =
  let svc = fresh_service () in
  let j =
    parse_ok
      (Service.handle_line svc (refine_start ~tin:"java.io.File" "java.io.BufferedReader"))
  in
  let sid = str_field "session" j in
  Service.request_shutdown svc;
  check_int "drain clears the table" 0 (Service.live_sessions svc);
  check_string "in-flight id answers shutting_down" "shutting_down"
    (error_code (Service.handle_line svc (line_of (Proto.Refine_answer { session = sid; choice = 0 }))));
  check_string "new sessions answer shutting_down" "shutting_down"
    (error_code (Service.handle_line svc (refine_start ~tin:"java.io.File" "java.io.BufferedReader")))

let test_service_refine_metrics () =
  let svc = fresh_service () in
  let j =
    parse_ok
      (Service.handle_line svc (refine_start ~tin:"java.io.File" "java.io.BufferedReader"))
  in
  let sid = str_field "session" j in
  ignore (Service.handle_line svc (line_of (Proto.Refine_status { session = sid })));
  ignore (Service.handle_line svc (line_of (Proto.Refine_stop { session = sid })));
  let stats = parse_ok (Service.handle_line svc (line_of Proto.Stats)) in
  (match Proto.member "sessions" stats with
  | Some (Proto.Int 0) -> ()
  | _ -> Alcotest.fail "stats must report 0 sessions after stop");
  let ops = Proto.member "ops" stats in
  List.iter
    (fun op ->
      match Option.bind ops (Proto.member op) with
      | Some (Proto.Obj _) -> ()
      | _ -> Alcotest.fail ("stats lacks latency coverage for " ^ op))
    [ "refine_start"; "refine_status"; "refine_stop" ]

(* ---------- runner ---------- *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "eval"
    [
      ( "evaluator",
        [
          Alcotest.test_case "string stubs" `Quick test_string_stubs;
          Alcotest.test_case "length stub" `Quick test_length_stub;
          Alcotest.test_case "fuel bound" `Quick test_fuel_bound;
          Alcotest.test_case "opaque absorbs" `Quick test_opaque_absorbs;
          Alcotest.test_case "widen invisible, downcast visible" `Quick
            test_widen_invisible_downcast_visible;
        ] );
      ("probe", [ qcheck prop_no_empty_branch ]);
      ( "session",
        [
          Alcotest.test_case "converges on a real query" `Quick test_session_converges;
          Alcotest.test_case "table 1 end-to-end" `Quick test_refine_table1_e2e;
        ] );
      ( "service",
        [
          Alcotest.test_case "refine flow" `Quick test_service_refine_flow;
          Alcotest.test_case "ttl eviction" `Quick test_service_refine_ttl;
          Alcotest.test_case "drain" `Quick test_service_refine_drain;
          Alcotest.test_case "metrics coverage" `Quick test_service_refine_metrics;
        ] );
    ]
