(** Qualified Java names: a package path plus a simple name.

    [Qname.t] values identify classes and interfaces throughout the model.
    They are immutable and totally ordered so they can key maps and sets.
    The type is private so the dotted rendering, computed once by {!make} or
    {!of_string}, always agrees with the components. *)

type t = private {
  pkg : string list;  (** package components, e.g. [["java"; "lang"]] *)
  name : string;  (** simple name, e.g. ["Object"] *)
  dotted : string;  (** the two joined by ['.'], e.g. ["java.lang.Object"] *)
}

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val show : t -> string

val make : pkg:string list -> string -> t
(** [make ~pkg name] builds a qualified name. *)

val of_string : string -> t
(** [of_string "java.lang.Object"] splits on ['.']; the last component is the
    simple name, the rest is the package. A bare name has an empty package. *)

val to_string : t -> string
(** Dotted rendering, e.g. ["java.lang.Object"]: the [dotted] field, so it
    allocates nothing. *)

val simple : t -> string
(** The simple (unqualified) name. *)

val package : t -> string list
(** The package components. *)

val package_string : t -> string
(** The package as a dotted string, [""] for the default package. *)

val same_package : t -> t -> bool
(** Whether two names live in the same package (used by the ranking
    heuristic's package-boundary count). *)

val object_qname : t
(** [java.lang.Object], the root of every hierarchy. *)

val string_qname : t
(** [java.lang.String]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
