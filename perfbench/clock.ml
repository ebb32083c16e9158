(* The one clock the benchmark reads: CLOCK_MONOTONIC through bechamel's
   stub, never the wall clock (which NTP may step mid-run). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* CPU seconds process [pid] has used, all its threads together, including
   threads that have exited (clock_getcpuclockid). Every CPU figure the
   benchmark reports, for the daemon and the batch process alike, is a
   difference of two readings of this clock. *)
external process_cpu_s : int -> float = "perfbench_process_cpu_s"
