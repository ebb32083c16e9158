(** Multi-file loading and name resolution for [.japi] sources.

    Resolution of a type name written in a file:
    + a dotted name is taken as fully qualified;
    + a simple name declared in the same package resolves there;
    + otherwise an [import] whose last component matches wins;
    + otherwise, if exactly one loaded declaration has that simple name, it
      wins (the curated data set relies on this to avoid import noise); two
      or more matches are an ambiguity error;
    + [Object] and [String] fall back to [java.lang];
    + anything else lands in the file's own package and is closed over as an
      opaque synthetic class.

    After resolution the hierarchy is validated: no inheritance cycles, a
    class may not extend an interface (or vice versa), and a class may not
    implement a class.

    Each call is one load: it makes its own {!Names} table, lexer lanes and
    resolution memo and drops them when it returns, so loads may run on any
    domain, concurrently. Every resolution to one name shares one
    [Qname.t] and one [Jtype.Ref]. *)

val load_files : (string * string) list -> Javamodel.Hierarchy.t
(** [load_files [(name, source); ...]] parses every source, resolves names
    across the whole set, and returns the closed hierarchy.
    @raise Error.E on syntax, ambiguity, duplicate, or validation errors. *)

val load_string : ?file:string -> string -> Javamodel.Hierarchy.t
(** Single-source convenience wrapper around {!load_files}. *)

