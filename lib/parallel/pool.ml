type t = { n_jobs : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { n_jobs = jobs }

let sequential = { n_jobs = 1 }

let jobs t = t.n_jobs

(* Nested fan-out (a worker's body itself calling into the pool) runs
   inline: lending more domains from a domain that is itself one of [jobs]
   workers would oversubscribe the machine, and the inline path keeps the
   semantics identical either way. Parked workers set the flag once, for
   life; a caller sets it around its own share. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let chunks_per_worker = 4

(* ---------- the parked workers ----------

   One process-wide set of worker domains, lent to every [t]. A worker
   blocks on its own condition until a caller hands it a [call], runs the
   call's share, then parks itself again before it counts itself done. One
   mutex guards the idle list, every worker's slot and every call's count,
   so a caller that sees [pending = 0] under it also sees everything its
   workers wrote. *)

type call = {
  share : unit -> unit;  (* claims chunks until none are left; never raises *)
  mutable pending : int;  (* lent workers not yet parked again *)
  finished : Condition.t;
}

type worker = { wake : Condition.t; mutable job : call option }

let lock = Mutex.create ()

let idle : worker list ref = ref []

let serve w =
  Domain.DLS.set inside_worker true;
  Mutex.lock lock;
  while true do
    match w.job with
    | None -> Condition.wait w.wake lock
    | Some c ->
        Mutex.unlock lock;
        c.share ();
        Mutex.lock lock;
        w.job <- None;
        idle := w :: !idle;
        c.pending <- c.pending - 1;
        if c.pending = 0 then Condition.signal c.finished
  done

(* Hands [c] to [k] workers: parked ones first, the most recently parked
   first (its workspaces are the warmest), then fresh domains. At the
   runtime's domain cap a spawn fails and its share stays with the others:
   chunks are claimed, not assigned. *)
let lend c k =
  Mutex.lock lock;
  c.pending <- k;
  let rec from_idle k =
    match !idle with
    | w :: rest when k > 0 ->
        idle := rest;
        w.job <- Some c;
        Condition.signal w.wake;
        from_idle (k - 1)
    | _ -> k
  in
  let fresh = from_idle k in
  Mutex.unlock lock;
  for _ = 1 to fresh do
    let w = { wake = Condition.create (); job = Some c } in
    try ignore (Domain.spawn (fun () -> serve w) : unit Domain.t)
    with Failure _ ->
      Mutex.lock lock;
      c.pending <- c.pending - 1;
      Mutex.unlock lock
  done

let await c =
  Mutex.lock lock;
  while c.pending > 0 do
    Condition.wait c.finished lock
  done;
  Mutex.unlock lock

let parallel_for t ~n body =
  if n > 0 then begin
    let workers = min t.n_jobs n in
    if workers = 1 || Domain.DLS.get inside_worker then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      let chunk = max 1 (n / (workers * chunks_per_worker)) in
      let next = Atomic.make 0 in
      let failed : (exn * Printexc.raw_backtrace) option Atomic.t =
        Atomic.make None
      in
      let share () =
        let continue = ref true in
        while !continue do
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= n || Atomic.get failed <> None then continue := false
          else
            let hi = min n (lo + chunk) in
            try
              for i = lo to hi - 1 do
                body i
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt)));
              continue := false
        done
      in
      let c = { share; pending = 0; finished = Condition.create () } in
      lend c (workers - 1);
      (* The calling domain is worker number [workers]. *)
      Domain.DLS.set inside_worker true;
      Fun.protect share ~finally:(fun () ->
          Domain.DLS.set inside_worker false;
          await c);
      match Atomic.get failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let map_array t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.n_jobs = 1 || n = 1 || Domain.DLS.get inside_worker then
    Array.map f arr
  else begin
    (* Option-boxed so no element of [arr] needs to act as a placeholder;
       each slot is written by exactly one worker. *)
    let out = Array.make n None in
    parallel_for t ~n (fun i -> out.(i) <- Some (f arr.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every index ran *))
      out
  end

let map_list t f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l ->
      if t.n_jobs = 1 || Domain.DLS.get inside_worker then List.map f l
      else Array.to_list (map_array t f (Array.of_list l))
