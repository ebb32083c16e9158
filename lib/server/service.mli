(** The daemon's brain, separated from its sockets: a {!Proto} request in, a
    {!Proto} response out, against one shared query engine.

    Both transports ({!Server}'s TCP worker pool and its [--stdio] loop) and
    the tests drive this module; the concurrency test calls {!handle_line}
    from many threads directly, no sockets involved.

    Concurrency model (snapshot publication, no read lock): the service
    keeps an {!Stdlib.Atomic} pointer to an immutable {e snapshot} — the
    engine's CSR-frozen graph, its reachability index and the model that
    ranks and vets answers over that graph (the warmed hierarchy, the usage
    model, the protocol checker, the lint vetting pass), stamped with the
    graph generation. Every read op (query, assist, batch, lint,
    refine_start, stats) loads the pointer once and runs entirely on that
    snapshot, which no one ever mutates — so reads take no lock, scale
    across worker domains, and a reload landing mid-request cannot mix two
    models into one answer.
    The snapshot changes only on a [reload] op, the one way the model
    changes: it patches the engine and publishes the new snapshot with one
    atomic store, under a private mutex that serializes reloads; in-flight
    readers simply finish on the previous snapshot. Result caching is per
    worker ({!local}) because an LRU mutates on reads; a worker that brings
    no cache still gets correct, lock-free, merely uncached answers. The
    engine's own cache never serves a read. *)

type t

type local
(** A per-worker result cache (one LRU over the query/assist/lint shapes).
    Not thread-safe — each transport worker owns exactly one and passes it
    to {!handle_line}. All caches created by {!local} are registered with
    the service so the stats op can report their combined counters. A
    cache records the graph generation its entries describe and empties
    itself on its first read of a newer snapshot (one invalidation when it
    held entries); stats count entries only in caches at the published
    generation. *)

val create :
  ?settings:Prospector.Query.settings ->
  ?cache_capacity:int ->
  ?vet:(Prospector.Jungloid.t -> Analysis.Diagnostic.t list) ->
  ?graph_config:Prospector.Sig_graph.config ->
  ?rebuild:(Javamodel.Hierarchy.t -> Prospector.Graph.frozen) ->
  ?deadline_s:float ->
  ?session_ttl_s:float ->
  engine:Prospector.Query.engine ->
  unit ->
  t
(** [settings] is the base for every request ([max_results]/[slack] fields
    override per request). [cache_capacity] (default 256) sizes each
    worker's result cache ({!local}); below 1 it raises [Invalid_argument].
    [vet] is the protocol vetting pass the lint op appends to its
    per-result diagnostics (typically [Analysis.Protolint.vet] over a mined
    model) — injected here because this library must not depend on the
    mining layer that learns the model.

    The next two parameters serve the [reload] op, which takes [.japi]
    deltas only (all deltas apply under the publish mutex, off the
    lock-free read path, and land as one atomic snapshot swap).
    [graph_config] must be the {!Prospector.Sig_graph} config the engine's
    graph was built with — {!Prospector.Delta.apply} rebuilds under it when
    a delta cannot be spliced. [rebuild] is the cold {e enriched} build the
    server would do at startup, from a patched hierarchy: it re-resolves
    the startup corpus against that hierarchy and freezes under the
    engine's usage model. When present it is {!Prospector.Delta.apply}'s
    [?rebuild], replacing the signature-only build on the fallback path, so
    mined (spliced) nodes and edges survive a reload and a structural
    reload builds one graph. A [Japi.Error.E] it raises (a delta that
    removes or reshapes a class the corpus uses) answers [bad_request] and
    applies nothing. The engine's mined models and [vet] never change
    after creation.

    [deadline_s] is the per-request deadline: a
    request whose execution exceeds it gets a [timeout] error reply instead
    of its result. Enforcement is cooperative — the elapsed time is checked
    against the deadline around the engine call, it does not interrupt a
    running search (OCaml offers no safe preemption); the bound it enforces
    is "no result computed slower than the deadline is ever served".

    [session_ttl_s] bounds how long an idle refine session survives: a
    session untouched for that many seconds is evicted, and later ops on
    its id get a typed [session_expired] reply (so clients restart the
    session rather than debug an [internal]). Omitted = sessions only die
    on [refine_stop] or drain. Refine sessions are the one piece of
    cross-request mutable state; they live behind their own mutex and
    never touch the lock-free snapshot read path.

    Creation eagerly warms the hierarchy's lazy memos and builds the
    engine's reach index, so the first snapshot is published before any
    worker starts. *)

val engine : t -> Prospector.Query.engine

val metrics : t -> Metrics.t

val local : t -> local
(** A fresh worker cache of [cache_capacity] entries (see {!create}),
    registered for stats reporting. Call once per worker thread/domain. *)

val shutdown_requested : t -> bool
(** Set once a [shutdown] request has been answered; transports poll it and
    drain. *)

val request_shutdown : t -> unit
(** What the [shutdown] op calls; exposed so a signal handler can trigger
    the same drain. Also clears the refine-session table: in-flight
    session ids answer [shutting_down] from then on. *)

val live_sessions : t -> int
(** Current refine-session count (the [stats] reply's ["sessions"] field
    and the ["refine_sessions"] metrics gauge). *)

val handle : ?local:local -> t -> Proto.envelope -> Proto.json
(** Dispatch one parsed request on the published snapshot: lock-free for
    every read op, memoized in [?local] when given. Engine exceptions become [internal] error replies —
    a poisoned query must not take the daemon down. Records one metrics
    sample per call. *)

val handle_line : ?local:local -> t -> string -> string
(** The full wire cycle: parse one request line (parse failures become
    [bad_request] replies, never exceptions), {!handle}, render the
    response as one line (no trailing newline). *)
