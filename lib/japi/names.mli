(** The names of one load, each interned once.

    Identifiers are interned straight from the source text: a lookup
    allocates nothing, and only an identifier's first occurrence copies its
    text. A dotted name is a path in a trie over identifier ids, so
    [java.lang.Object] is the path extending [java.lang] by [Object], and
    equal dotted names are equal ids. Each path lazily builds one {!Qname.t}
    and one [Jtype.Ref] that every resolution to it shares.

    A table belongs to one load: it is mutable and not safe to share
    between domains. *)

type t

val create : unit -> t

val root : int
(** The prefix of a one-identifier path. It is no path itself. *)

val ident_sub : t -> string -> int -> int -> int
(** [ident_sub t s pos len] interns the identifier [String.sub s pos len]
    and returns its id. Ids are dense, from 0, in order of first
    occurrence. *)

val intern : t -> string -> int

val ident : t -> int -> string
(** The text of an identifier id. *)

val ident_count : t -> int
(** Identifiers interned so far: every id is below it. *)

val path : t -> prefix:int -> int -> int
(** [path t ~prefix x] is the path [prefix.x], or the one-identifier path
    [x] when [prefix] is {!root}. *)

val path_of_string : t -> string -> int
(** The path of a dotted name, e.g. ["java.lang.Object"]. *)

val prefix : t -> int -> int
(** The path without its last identifier, {!root} for a simple name. *)

val last : t -> int -> int
(** The last identifier of a path. *)

val qname : t -> int -> Javamodel.Qname.t
(** The path as a qualified name, built once per path. *)

val ref_type : t -> int -> Javamodel.Jtype.t
(** [Ref (qname t p)], built once per path. *)
