(** The class hierarchy: a closed table of declarations with subtyping.

    The hierarchy is the substrate under both the signature graph (widening
    edges, member enumeration) and the mining call-graph approximation
    (dispatch targets by subtype). It normalizes implicit Java facts:

    - every class other than [java.lang.Object] has a superclass
      ([java.lang.Object] if the declaration named none);
    - interface values widen to [java.lang.Object];
    - array types are covariant and widen to [java.lang.Object];
    - referenced but undeclared types can be closed over as opaque
      synthetic classes with {!ensure_closed}. *)

type t

exception Unknown_type of Qname.t

exception Duplicate_decl of Qname.t

val create : unit -> t
(** An empty hierarchy containing only [java.lang.Object]. *)

val copy : t -> t
(** An independent copy; additions to the copy do not affect the original.
    The decl table is persistent underneath, so the copy shares it until
    either side mutates; the memos come along too — the reverse index is
    shared, the depth cache copied, O(entries) — so a copy of a warmed
    hierarchy is warm. Used to extend an API hierarchy with corpus client
    classes and as {!Delta}'s working copy per reload. *)

val of_decls : Decl.t list -> t
(** [of_decls ds] builds a hierarchy and {!ensure_closed}s it.
    @raise Duplicate_decl if two declarations share a name. *)

val add : t -> Decl.t -> unit
(** Declare a new name. When no {!depth} computation visited the name while
    it was undeclared (directly, or through a declaration naming it as a
    supertype), no memoized depth depended on its absence, so the
    {!subtypes} and {!depth} memos stay and are extended: the reverse index
    gains the name under its direct supers and, on a warm hierarchy, its
    depth is memoized here, so the hierarchy stays warm. Otherwise both
    memos are dropped.
    @raise Duplicate_decl on re-declaration. *)

val replace : t -> Decl.t -> unit
(** Swap the declaration under an already-declared name in place. Unlike
    remove-then-add this keeps the name's insertion stamp and therefore its
    position in the iteration order, which downstream id assignment (node
    numbering in the signature graph) depends on for incremental reload.
    A replacement with the same kind, [extends] and [implements] (a body
    edit) keeps the {!subtypes} and {!depth} memos, which depend on nothing
    else; any other changes a depth its subtypes inherit, so it drops both,
    as {!remove} always does.
    @raise Unknown_type if the name is not declared. *)

val remove : t -> Qname.t -> unit
(** Drop a declaration. [java.lang.Object] is the hierarchy's root and is
    not removable.
    @raise Unknown_type if the name is not declared.
    @raise Invalid_argument on [java.lang.Object]. *)

val ensure_closed : t -> unit
(** Add an opaque synthetic class for every type referenced by a signature or
    an [extends]/[implements] clause but not declared, in {!Qname.compare}
    order, each through {!add}. Idempotent. *)

val close_over : t -> Decl.t list -> unit
(** {!ensure_closed} limited to the names the given declarations mention.
    On a hierarchy that was closed before these declarations were added or
    replaced in, and that has lost no declaration since, it adds exactly the
    placeholders {!ensure_closed} would, in the same order, at a cost that
    grows with the declarations rather than the table. *)

val find : t -> Qname.t -> Decl.t
(** @raise Unknown_type *)

val find_opt : t -> Qname.t -> Decl.t option

val mem : t -> Qname.t -> bool

val size : t -> int
(** Number of declarations (including synthetic ones). *)

val iter : t -> (Decl.t -> unit) -> unit

val fold : t -> init:'a -> f:('a -> Decl.t -> 'a) -> 'a

val decls : t -> Decl.t list
(** All declarations, sorted by name for deterministic iteration. *)

val direct_supers : t -> Qname.t -> Qname.t list
(** Immediate widening targets of a declared type: superclass and implemented
    interfaces for a class, superinterfaces plus [Object] for an interface.
    [Object] itself has none. Unknown types are treated as opaque classes
    extending [Object]. *)

val supers : t -> Qname.t -> Qname.Set.t
(** Strict transitive supertypes. *)

val is_subclass : t -> Qname.t -> Qname.t -> bool
(** [is_subclass h sub sup] — reflexive transitive on declared names. *)

val is_subtype : t -> Jtype.t -> Jtype.t -> bool
(** Full widening-reference-conversion check on types: reflexive, transitive,
    arrays covariant, every reference type a subtype of [Object]. Primitive
    and [void] types are subtypes only of themselves. *)

val subtypes : t -> Qname.t -> Qname.Set.t
(** Strict transitive subtypes (inverse of {!supers}); reverse index is built
    lazily and invalidated as {!replace} describes. *)

val depth : t -> Qname.t -> int
(** Length of the longest chain of {!direct_supers} steps from the type up to
    [Object]; [Object] has depth 0. Used by the output-generality ranking
    tiebreak (larger depth = more specific type). *)

val warm : t -> unit
(** Force the lazy memos behind {!subtypes} (reverse index) and {!depth}
    (per-name cache) for every declared name. A hierarchy is only safe to
    share read-only across domains after warming — the memos mutate on first
    use — so every parallel entry point ({!Mining.Extract},
    [Query.run_batch], the server engine) warms before fanning out. Idempotent
    and invalidated with the memos themselves (by {!remove}, a
    supertype-changing {!replace} and an {!add} that drops them); on a warm
    hierarchy it is O(1). *)

val lookup_method : t -> Qname.t -> string -> arity:int -> (Qname.t * Member.meth) option
(** Member lookup along the supertype chain, for the mini-Java resolver:
    returns the declaring type and signature of the first matching method. *)

val lookup_field : t -> Qname.t -> string -> (Qname.t * Member.field) option

val dispatch_targets : t -> Qname.t -> string -> arity:int -> (Qname.t * Member.meth) list
(** Conservative call-graph approximation by type hierarchy (Section 4.2):
    all declarations at or below [recv] that declare a method with this name
    and arity. *)

val referenced_qnames : Decl.t -> Qname.Set.t
(** Every type name mentioned by a declaration (supertypes and member
    signatures), with array/element types unwrapped to their base names. *)
