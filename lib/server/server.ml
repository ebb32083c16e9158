let log_src = Logs.Src.create "prospector.server" ~doc:"jungloid query daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  host : string;
  port : int;
  workers : int;
  max_request_bytes : int;
  max_connections : int;
  idle_poll_s : float;
  port_file : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    max_request_bytes = 1 lsl 20;
    max_connections = 64;
    idle_poll_s = 0.25;
    port_file = None;
  }

type t = {
  config : config;
  service : Service.t;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  queue : Unix.file_descr Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  stop : bool Atomic.t;
  active : int Atomic.t;  (* connections queued or in flight *)
  mutable threads : Thread.t list;
  mutable domains : unit Domain.t list;
}

let create ?(config = default_config) service =
  {
    config;
    service;
    listen_fd = None;
    bound_port = 0;
    queue = Queue.create ();
    qmutex = Mutex.create ();
    qcond = Condition.create ();
    stop = Atomic.make false;
    active = Atomic.make 0;
    threads = [];
    domains = [];
  }

let port t = t.bound_port

let stopping t = Atomic.get t.stop || Service.shutdown_requested t.service

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    Service.request_shutdown t.service;
    Mutex.lock t.qmutex;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmutex
  end

(* ---------- I/O helpers ---------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let send_line fd line = write_all fd (line ^ "\n")

(* A buffered line reader over a raw fd. Reads wake every [idle_poll_s]
   (receive timeout) so a parked connection notices a drain. Returns
   [`Line l], [`Too_long] (cap exceeded; the rest of the line has been
   discarded), [`Eof], or [`Stopping]. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 512; chunk = Bytes.create 4096 }

let rec next_line t r ~discarding =
  let pending = Buffer.contents r.buf in
  match String.index_opt pending '\n' with
  | Some i ->
      let line = String.sub pending 0 i in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf pending (i + 1) (String.length pending - i - 1);
      if discarding then `Too_long
      else if String.length line > t.config.max_request_bytes then `Too_long
      else `Line line
  | None ->
      let discarding =
        if discarding then (Buffer.clear r.buf; true)
        else if Buffer.length r.buf > t.config.max_request_bytes then begin
          Buffer.clear r.buf;
          true
        end
        else false
      in
      (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> `Eof
      | n ->
          Buffer.add_subbytes r.buf r.chunk 0 n;
          next_line t r ~discarding
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if stopping t then `Stopping else next_line t r ~discarding
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line t r ~discarding)

(* ---------- connection serving ---------- *)

(* Each reply is one write, so Nagle's algorithm only ever delays it: a
   client that pipelines requests would see every reply after the first
   wait for the ACK its own delayed-ACK timer holds back. *)
let serve_connection t local fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_poll_s
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let r = reader fd in
  let rec loop () =
    match next_line t r ~discarding:false with
    | `Eof | `Stopping -> ()
    | `Too_long ->
        send_line fd
          (Proto.to_string
             (Proto.error_response ~id:Proto.Null Proto.Too_large
                (Printf.sprintf "request exceeds %d bytes"
                   t.config.max_request_bytes)));
        if not (stopping t) then loop ()
    | `Line line ->
        send_line fd (Service.handle_line ?local t.service line);
        (* a shutdown op answered above flips the service flag; fold the
           whole server into the drain *)
        if Service.shutdown_requested t.service then shutdown t;
        if not (stopping t) then loop ()
  in
  (try loop () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      () (* client went away mid-reply; their loss, not ours *)
  | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------- workers ---------- *)

(* Each worker is a {e domain}: OCaml threads share one runtime lock, so
   thread workers only ever overlapped on I/O waits. With snapshot reads
   taking no lock (see {!Service}), domain workers execute searches truly
   concurrently. Each owns one result cache. The connection queue's
   mutex/condition pair works unchanged across domains. *)
let worker t () =
  let local = Service.local t.service in
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not (stopping t) do
      Condition.wait t.qcond t.qmutex
    done;
    let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    Mutex.unlock t.qmutex;
    match job with
    | Some fd ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.active)
          (fun () -> serve_connection t (Some local) fd);
        loop ()
    | None -> if stopping t then () else loop ()
  in
  loop ()

let accept_loop t listen_fd () =
  let rec loop () =
    if stopping t then ()
    else begin
      (match Unix.select [ listen_fd ] [] [] t.config.idle_poll_s with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ ->
              if Atomic.get t.active >= t.config.max_connections then begin
                Log.warn (fun m ->
                    m "connection limit %d reached — refusing client"
                      t.config.max_connections);
                (try
                   send_line fd
                     (Proto.to_string
                        (Proto.error_response ~id:Proto.Null Proto.Busy
                           (Printf.sprintf "server at its %d-connection limit"
                              t.config.max_connections)))
                 with Unix.Unix_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                Atomic.incr t.active;
                Mutex.lock t.qmutex;
                Queue.push fd t.queue;
                Condition.signal t.qcond;
                Mutex.unlock t.qmutex
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* wake any workers parked on the condition so they can drain *)
  Mutex.lock t.qmutex;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int port ^ "\n");
  close_out oc;
  Sys.rename tmp path

let start t =
  (* a worker writing to a dead client must get EPIPE, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.config.port) in
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  t.bound_port <-
    (match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> t.config.port);
  t.listen_fd <- Some fd;
  Option.iter (fun path -> write_port_file path t.bound_port) t.config.port_file;
  Log.app (fun m ->
      m "listening on %s:%d (%d workers, max %d connections, max request %d bytes)"
        t.config.host t.bound_port t.config.workers t.config.max_connections
        t.config.max_request_bytes);
  let workers = List.init t.config.workers (fun _ -> Domain.spawn (worker t)) in
  let acceptor = Thread.create (accept_loop t fd) () in
  t.domains <- workers;
  t.threads <- [ acceptor ]

let wait t =
  List.iter Thread.join t.threads;
  t.threads <- [];
  List.iter Domain.join t.domains;
  t.domains <- [];
  (match t.listen_fd with
  | Some fd ->
      t.listen_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Option.iter
    (fun path -> try Sys.remove path with Sys_error _ -> ())
    t.config.port_file;
  Log.app (fun m -> m "drained after %d request(s)"
      (Metrics.total_requests (Service.metrics t.service)))

let run t =
  start t;
  wait t

(* ---------- stdio transport ---------- *)

let serve_stdio ?(max_request_bytes = default_config.max_request_bytes) service =
  let local = Service.local service in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
        let response =
          if String.length line > max_request_bytes then
            Proto.to_string
              (Proto.error_response ~id:Proto.Null Proto.Too_large
                 (Printf.sprintf "request exceeds %d bytes" max_request_bytes))
          else Service.handle_line ~local service line
        in
        print_string response;
        print_newline ();
        flush stdout;
        if not (Service.shutdown_requested service) then loop ()
  in
  loop ()
