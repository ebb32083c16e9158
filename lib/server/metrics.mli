(** Request accounting for the daemon: per-op counters and latency
    histograms, served by the [stats] op and dumped on exit.

    Latencies land in log-linear buckets: each octave from ~1 µs to
    ~70 min is cut into 8 equal slices, and [Float.frexp] finds a sample's
    bucket in O(1). Memory is constant, and a reported p50/p95/p99 is the
    end of the bucket holding the exact (nearest-rank) percentile, capped
    at the op's [max_ms]: never below the exact value and at most 12.5%
    above it — the right trade for a long-running server (an exact
    percentile would need every sample). Below ~1 µs the bound is
    absolute: such samples report at most ~1 µs.

    All operations are thread-safe (one internal mutex; recording is a few
    array writes, so contention is not a concern next to query cost). *)

type t

val create : unit -> t
(** Fresh counters; the creation instant anchors {!uptime_s}. *)

val record : t -> op:string -> ok:bool -> float -> unit
(** [record t ~op ~ok seconds] — one request of kind [op] took [seconds];
    [ok = false] counts it as an error (error replies are still latencies:
    a timeout reply took real time). *)

type op_stats = {
  count : int;
  errors : int;
  mean_ms : float;
  max_ms : float;
  p50_ms : float;  (** bucket ends, capped at [max_ms]; see above *)
  p95_ms : float;
  p99_ms : float;
}

val ops : t -> (string * op_stats) list
(** Snapshot, sorted by op name. *)

val set_gauge : t -> string -> int -> unit
(** Point-in-time level, e.g. [set_gauge t "refine_sessions" 3]. Unlike a
    latency sample a gauge overwrites; it reports the current level, not a
    history. *)

val gauges : t -> (string * int) list
(** Snapshot, sorted by gauge name; empty until a gauge is first set, so
    servers that never see a refine op keep their old output. *)

val gauges_json : t -> Proto.json
(** [{"refine_sessions": 0, ...}]. *)

val total_requests : t -> int

val uptime_s : t -> float

val ops_json : t -> Proto.json
(** [{"query": {"count": ..., "p50_ms": ...}, ...}] — the [stats] payload. *)

val render : t -> string
(** Multi-line human dump (printed to stderr when the server drains). *)
