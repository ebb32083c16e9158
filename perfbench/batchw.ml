(* The batch process: what `prospector batch -j N --api ...` does with a
   world and a query file, timed from inside. It runs as its own process so
   its peak memory is the program's, not the generator's. *)

module Query = Prospector.Query
module Proto = Prospector_server.Proto
module Pool = Prospector_parallel.Pool

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let world_dir dir = Filename.concat dir "world"

let world_files dir =
  let d = world_dir dir in
  Sys.readdir d |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (Filename.remove_extension f, read_file (Filename.concat d f)))

(* `prospector batch`'s query file: one "TIN TOUT" pair per line. *)
let parse_queries text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Some
               (Query.query (String.sub line 0 i)
                  (String.sub line (i + 1) (String.length line - i - 1)))
         | None -> None)
  |> Array.of_list

type answer = { index : int; results : Proto.json }

let process_cpu () = Clock.process_cpu_s (Unix.getpid ())

(* Set-up: read the world, parse and resolve it, build the graph, freeze it
   into the engine, build the reach index, plan the shards and warm the
   hierarchy — everything before the first batch can be answered. Returns
   its wall time and the CPU time the process has used by then. *)
let setup ~dir ~jobs =
  let t0 = Clock.now () in
  let m = Model.of_japi (world_files dir) in
  let pool = Pool.create ~jobs in
  let e = Model.batch_engine ~pool m in
  ignore (Query.engine_reach e);
  ignore (Query.engine_shards e);
  Javamodel.Hierarchy.warm m.Model.hierarchy;
  (Clock.now () -. t0, process_cpu (), e)

(* Closed loop, one caller: fixed-size [run_batch] calls over the distinct
   queries until [seconds] have passed, starting over at the first query if
   they run out. Returns per-call start times (s from the loop's start) and
   latencies (ms), queries answered, wall and CPU seconds of the loop, and
   the answers at the [sample] indices. *)
let closed_loop e ~queries ~size ~seconds ~sample =
  let want = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace want i ()) sample;
  let answers = ref [] and lats = ref [] and starts = ref [] in
  let cpu0 = process_cpu () in
  let t0 = Clock.now () in
  let next = ref 0 in
  while Clock.now () -. t0 < seconds do
    let batch = List.init size (fun k -> queries.((!next + k) mod Array.length queries)) in
    let c0 = Clock.now () in
    let rs = Query.run_batch e batch in
    lats := (Clock.now () -. c0) *. 1000. :: !lats;
    starts := (c0 -. t0) :: !starts;
    List.iteri
      (fun k (_, r) ->
        if Hashtbl.mem want (!next + k) then
          answers := { index = !next + k; results = Oracle.results_json r } :: !answers)
      rs;
    next := !next + size
  done;
  let wall = Clock.now () -. t0 in
  let cpu = process_cpu () -. cpu0 in
  ( Array.of_list (List.rev !starts), Array.of_list (List.rev !lats), !next, wall, cpu,
    List.rev !answers )

let main ~dir ~jobs ~size ~seconds ~setup_only ~out =
  let setup_wall, setup_cpu, e = setup ~dir ~jobs in
  let setup = [ ("setup_wall_s", Proto.Float setup_wall); ("setup_cpu_s", Proto.Float setup_cpu) ] in
  let fields =
    if setup_only then setup
    else begin
      let queries = parse_queries (read_file (Filename.concat dir "queries.txt")) in
      let sample =
        read_file (Filename.concat dir "sample.txt")
        |> String.split_on_char '\n'
        |> List.filter_map int_of_string_opt |> Array.of_list
      in
      let starts, lats, answered, wall, cpu, answers =
        closed_loop e ~queries ~size ~seconds ~sample
      in
      let floats a = Proto.Arr (Array.to_list (Array.map (fun x -> Proto.Float x) a)) in
      setup
      @ [
        ("calls_at", floats starts);
        ("calls_ms", floats lats);
        ("answered", Proto.Int answered);
        ("wall_s", Proto.Float wall);
        ("cpu_s", Proto.Float cpu);
        ("peak_rss_mb", Proto.Float (Wire.peak_rss_mb (Unix.getpid ())));
        ( "answers",
          Proto.Arr
            (List.map
               (fun a -> Proto.Obj [ ("i", Proto.Int a.index); ("results", a.results) ])
               answers) );
      ]
    end
  in
  let oc = open_out out in
  output_string oc (Proto.to_string (Proto.Obj fields));
  close_out oc
