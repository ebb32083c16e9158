(* The serving processes and the open-loop load generator. The daemon runs
   as its own process, started the way a user starts it, and is driven over
   loopback TCP from this one. *)

let cli = Filename.concat "_build" (Filename.concat "default" "bin/prospector_cli.exe")

(* ---------- processes ---------- *)

type proc = { pid : int; port : int }

(* Children still running. A run that dies on an exception kills and reaps
   them on its way out, so it never leaves a daemon behind. *)
let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let spawn prog argv ~out =
  let pid = Unix.create_process prog argv Unix.stdin out out in
  children := pid :: !children;
  pid

let reap pid =
  let _, status = Unix.waitpid [] pid in
  children := List.filter (( <> ) pid) !children;
  status

let proc_field pid file key =
  let ic = open_in (Printf.sprintf "/proc/%d/%s" pid file) in
  let rec find () =
    match input_line ic with
    | line when String.length line > String.length key
                && String.sub line 0 (String.length key) = key ->
        Some line
    | _ -> find ()
    | exception End_of_file -> None
  in
  let r = find () in
  close_in ic;
  r

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb pid =
  match proc_field pid "status" "VmHWM:" with
  | Some line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
  | None -> nan

(* Start `prospector serve` with [args] after the default listening flags
   and measure its set-up, from inputs in hand to a listening daemon: wall
   time from spawn to the port file's appearance, and the CPU time the
   daemon spent getting there. *)
let spawn_server ~work ~tag args =
  let port_file = Filename.concat work ("port-" ^ tag) in
  if Sys.file_exists port_file then Sys.remove port_file;
  let log =
    Unix.openfile (Filename.concat work ("server-" ^ tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ([ cli; "serve"; "--port"; "0"; "--port-file"; port_file ] @ args) in
  let t0 = Clock.now () in
  let pid = spawn cli argv ~out:log in
  Unix.close log;
  let rec wait () =
    if Sys.file_exists port_file then Clock.now () -. t0
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          children := List.filter (( <> ) pid) !children;
          failwith (Printf.sprintf "daemon exited during start-up (see %s)" work));
      if Clock.now () -. t0 > 120. then failwith "daemon did not listen within 120 s";
      Unix.sleepf 0.0002;
      wait ()
    end
  in
  let wall = wait () in
  let cpu = Clock.process_cpu_s pid in
  let port =
    let ic = open_in port_file in
    let p = int_of_string (String.trim (input_line ic)) in
    close_in ic;
    p
  in
  ({ pid; port }, wall, cpu)

(* Graceful drain (SIGTERM drains like the shutdown op), then reap. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap p.pid = Unix.WEXITED 0

(* ---------- connections ---------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send fd line =
  let s = line ^ "\n" in
  write_all fd s 0 (String.length s)

(* Complete lines out of a connection's receive buffer. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

(* What one phase of open-loop traffic produced, per arrival. Replies are
   kept as the digest of their body (everything after the leading "id"
   member, the only part two replies to one request may differ in) plus one
   full line per distinct body: the generator allocates almost nothing
   while the phase runs. *)
type outcome = {
  sent : float array;  (** monotonic send time *)
  received : float array;  (** reply time, [nan] if none came *)
  bodies : Digest.t array;  (** body digest, "" if no reply came *)
  lines : (Digest.t, string) Hashtbl.t;  (** one reply line per body *)
  start : float;  (** the phase's time zero: due times are offsets from it *)
}

(* Where a reply line's body starts: after its leading "id" member. *)
let body_start b off len =
  if len > 6 && Bytes.sub_string b off 6 = "{\"id\":" then
    match Bytes.index_from_opt b off ',' with Some i when i < off + len -> i | _ -> off
  else off

let reply o i = Hashtbl.find_opt o.lines o.bodies.(i)

(* Open loop over connection pools: arrival [a] goes out on lane
   [a.lane], whose connections [lanes.(a.lane)] each carry one request at a
   time, like independent clients. An arrival is queued from its due time
   until one of its lane's connections is free, whatever else is
   outstanding, and its latency counts from the due time — so a slow reply
   delays everything queued behind it. One thread multiplexes every
   connection with select, so the generator never blocks on the program.
   Replies still missing [drain_s] after the last due time are given up
   on. *)
let drain_s = 30.

let run_phase lanes (phase : Inputs.phase) =
  let arr = phase.Inputs.arrivals in
  let n = Array.length arr in
  let sent = Array.make n nan and received = Array.make n nan in
  let bodies = Array.make n "" and lines = Hashtbl.create 1024 in
  let conns = Array.concat (Array.to_list lanes) in
  let busy = Hashtbl.create 8 in  (* fd -> arrival in flight *)
  let bufs = Hashtbl.create 8 in
  Array.iter (fun fd -> Hashtbl.replace bufs fd (Buffer.create 65536)) conns;
  let queues = Array.map (fun _ -> Queue.create ()) lanes in
  let chunk = Bytes.create 65536 in
  let record i b off len at =
    let bs = body_start b off len in
    let d = Digest.subbytes b bs (off + len - bs) in
    if not (Hashtbl.mem lines d) then Hashtbl.replace lines d (Bytes.sub_string b off len);
    bodies.(i) <- d;
    received.(i) <- at
  in
  Gc.full_major ();
  let start = Clock.now () +. 0.002 in
  let give_up = start +. phase.Inputs.duration +. drain_s in
  let next = ref 0 and done_ = ref 0 in
  let dispatch () =
    Array.iteri
      (fun lane q ->
        Array.iter
          (fun fd ->
            if (not (Queue.is_empty q)) && not (Hashtbl.mem busy fd) then begin
              let i = Queue.pop q in
              send fd arr.(i).Inputs.line;
              sent.(i) <- Clock.now ();
              Hashtbl.replace busy fd i
            end)
          lanes.(lane))
      queues
  in
  while !done_ < n && Clock.now () < give_up do
    let now = Clock.now () in
    while !next < n && start +. arr.(!next).Inputs.due <= now do
      Queue.push !next queues.(arr.(!next).Inputs.lane);
      incr next
    done;
    dispatch ();
    let timeout =
      if !next < n then
        Float.max 0. (start +. arr.(!next).Inputs.due -. Clock.now ())
      else 0.05
    in
    let waiting = Hashtbl.fold (fun fd _ acc -> fd :: acc) busy [] in
    let readable =
      if waiting = [] then (Unix.sleepf timeout; [])
      else
        match Unix.select waiting [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "daemon closed a connection mid-run"
        | k ->
            let at = Clock.now () in
            let buf = Hashtbl.find bufs fd in
            let complete = Bytes.get chunk (k - 1) = '\n' in
            if complete && Buffer.length buf = 0 then begin
              (* the common case: the whole reply arrived in one read *)
              let i = Hashtbl.find busy fd in
              Hashtbl.remove busy fd;
              record i chunk 0 (k - 1) at;
              incr done_
            end
            else begin
              Buffer.add_subbytes buf chunk 0 k;
              if complete then begin
                let line = Buffer.to_bytes buf in
                Buffer.clear buf;
                let i = Hashtbl.find busy fd in
                Hashtbl.remove busy fd;
                record i line 0 (Bytes.length line - 1) at;
                incr done_
              end
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      readable
  done;
  { sent; received; bodies; lines; start }

(* One request, one reply, on a connection with nothing outstanding. *)
let request fd line =
  send fd line;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec loop () =
    match take_lines buf with
    | l :: _ -> l
    | [] ->
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "daemon closed the connection";
        Buffer.add_subbytes buf chunk 0 k;
        loop ()
  in
  loop ()

(* The open-loop samples of a phase's arrivals, in due order. [check] says
   whether arrival [i]'s reply is correct. *)
let samples (phase : Inputs.phase) o ~check =
  Array.mapi
    (fun i (a : Inputs.arrival) ->
      {
        Summary.due = o.start +. a.Inputs.due;
        sent = o.sent.(i);
        received = o.received.(i);
        ok = (not (Float.is_nan o.received.(i))) && check i;
      })
    phase.Inputs.arrivals
