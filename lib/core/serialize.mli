(** On-disk graph representation (Section 5: the paper's graph "occupies
    8 MB of space on disk and 24 MB when loaded into memory. Loading the
    graph takes 1.5 seconds").

    One format: the frozen CSR snapshot, the representation every query
    runs on. Its small cold half is OCaml's Marshal behind a magic header
    and format version, so files are only readable by a compatible build:
    they are a cache, not an interchange format (the interchange format is
    [.japi] text, which {!Japi.Printer} round-trips). Every save writes a
    temp file and renames it over the target, so a process that has the
    old file mapped keeps reading it intact. *)

exception Format_error of string

(** Why a cache file could not be loaded. Loaders classify every failure —
    missing file, short read, foreign file, version skew, garbled Marshal
    payload — instead of letting [Failure]/[End_of_file] escape from
    Marshal: a corrupt cache must degrade to a cold rebuild (with a
    warning), never crash the server ([serve.t] pins the CLI behavior). *)
type error =
  | Io of string  (** open/read failed ([Sys_error]/[Unix_error] text) *)
  | Bad_magic of string  (** not one of our files; carries what was found *)
  | Bad_version of { found : int; expected : int }
  | Corrupt of string  (** right header, unusable payload *)

val error_message : error -> string
(** One-line human-readable rendering (for warnings and logs). *)

(** {2 Frozen CSR snapshots (v2)}

    The scale format: the {!Graph.frozen} hot lanes are stored as raw
    page-aligned segments after a small Marshal'd cold section, so
    {!load_frozen} can hand them to [Unix.map_file] untranslated. A warm
    start then costs O(pages actually touched) instead of a full
    deserialize + re-intern, the mapped segments are shared read-only
    across every domain (and every process) serving the same snapshot, and
    the OS page cache persists them across server restarts. The cold half
    (boxed edge elems, type metadata, interning table) still loads
    eagerly — it is small and heap-allocated either way. *)

val save_frozen : Graph.frozen -> string -> int
(** [save_frozen fz path] writes the snapshot and returns the byte size.
    Weighted-cost arrays are persisted as-is; a loader that wants a
    different cost model re-bakes with {!Graph.rebake}. *)

val load_frozen : ?mmap:bool -> string -> (Graph.frozen, error) result
(** Load a v2 snapshot. With [mmap] (the default) the six hot segments are
    mapped read-only and lazily paged; with [~mmap:false] they are read
    into fresh heap-external arrays (bit-identical result — the property
    suite checks both against the original freeze). File size and segment
    bounds are validated {e before} mapping, so a truncated file is a
    [Corrupt] error, never a [SIGBUS]. Any file that is not a v2 snapshot
    (including the retired v1 Marshal graph format) reports [Bad_magic]. *)

(** {2 Reachability index}

    The {!Reach} index is a pure function of the graph, so it is persisted
    beside the graph as a second cache file: a server restart loads both and
    skips the closure computation. {!Reach.generation} survives the round
    trip, so the usual generation check still guards against pairing a stale
    index with a newer graph. *)

val save_reach : Reach.t -> string -> int
(** [save_reach r path] writes the index and returns the byte size. *)

val load_reach_result : string -> (Reach.t, error) result

val load_reach : string -> Reach.t
(** @raise Format_error on a missing/garbled header or version mismatch.
    @raise Sys_error on I/O failure. *)

val reach_to_bytes : Reach.t -> bytes

val reach_of_bytes : bytes -> Reach.t
