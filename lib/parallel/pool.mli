(** A small [Domain]-backed fan-out pool.

    A [t] is a policy value, the number of domains a fan-out may use. The
    domains themselves are one process-wide set of {e parked} workers, lent
    to every [t]: a [parallel_for]/[map_*] call hands its fan-out to
    [jobs - 1] of them and the calling domain works alongside. Workers are
    spawned lazily, the first time a fan-out needs more than are parked,
    and between calls each blocks on its own condition variable, without
    spinning. The set grows only to the largest concurrent demand
    ([jobs - 1] for one caller, so creating a pool per pass never nears
    the runtime's domain cap) and lives as long as the process;
    exiting never waits for a parked worker. A worker's domain-local state
    survives from one call to the next, so the search workspaces
    ([Topk.Memo.domain], [Search.Scratch.domain]) stay at their high-water
    mark instead of regrowing in every call. Spawning per call instead is
    not noise: with a spawn per pass, 20 mining passes took 0.057 s at
    jobs = 4 against 0.013 s at jobs = 1, and a cold 40-query batch
    0.023 s at jobs = 2 against 0.009 s at jobs = 1 (two cores). What a
    parked worker still costs: it joins every stop-the-world minor
    collection through its backup thread, and the collecting domain waits
    for it at the barrier — about 0.25 ms of CPU per minor collection per
    parked worker on a 2-vCPU VM, paid by whatever runs sequentially
    between fan-outs.

    Work distribution is {e chunked}: indices [0 .. n-1] are split into
    contiguous chunks of [max 1 (n / (jobs * 4))] indices and domains claim
    chunks from a shared atomic counter. Four chunks per worker balances
    load (a slow chunk strands at most ~1/4 of one worker's share) against
    contention on the counter.

    Determinism: results of [map_array]/[map_list] are written into a
    preallocated array at each element's input index, so the output order is
    the input order regardless of how chunks interleave. Any call with
    [jobs = 1] — and any {e nested} fan-out from inside a worker — runs
    sequentially inline, so a pool never deadlocks on itself and
    [jobs = 1] is exactly the plain sequential loop.

    Completion: a worker reports its share done under the pool's mutex, and
    the caller returns only after reading every report under it, so
    everything a body wrote happens-before the caller's next instruction,
    the same edge a [Domain.join] gives. Callers rely on it as a barrier
    between successive fan-outs (the level-by-level closure of [Reach]).

    Exceptions: the first exception captured (in chunk-claim order) is
    re-raised in the caller after every lent worker has finished its share
    and parked again; when several chunks raise concurrently it is
    unspecified which one wins. *)

type t

val create : jobs:int -> t
(** @raise Invalid_argument when [jobs < 1]. *)

val sequential : t
(** A pool with [jobs = 1]: every operation runs inline. *)

val jobs : t -> int

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for p ~n body] runs [body i] once for each [i] in
    [0 .. n - 1], fanned out across [jobs p] domains. The body must only
    write to disjoint, index-addressed state (see {!map_array} for the
    canonical use). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with the elements computed in parallel. Output index
    [i] always holds [f arr.(i)]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with the elements computed in parallel; result order is
    input order. *)
