(** The jungloid soundness verifier: re-typechecks a solution chain against
    the hierarchy, independently of how the search produced it.

    [Prospector.Jungloid.well_typed] only checks that adjacent steps compose
    and that conversions point the right way; this pass additionally checks
    that every member a step references actually exists with the claimed
    signature, that input slots are valid for the step kind, that
    constructed classes are instantiable, and that referenced members are
    public. It is the trusted oracle that [lint --pass query], the tests
    and [Mining.Extract]'s well-typedness check hold the search's answers
    and the mined examples against; it never runs inside a query.

    Codes: [J001] step does not compose; [J002] missing or mismatched
    member; [J003] widening edge does not widen; [J004] downcast to an
    unrelated type; [J005] invalid input slot for the step kind; [J006]
    non-public member (warning); [J007] no-op conversion (warning); [J008]
    constructing an interface (error) or abstract class (warning); [J009]
    opaque owner, member unverifiable (info). *)

val check : Javamodel.Hierarchy.t -> Prospector.Jungloid.t -> Diagnostic.t list
(** All findings for the chain, one step at a time; empty means the chain
    is fully verified. *)

val sound : Javamodel.Hierarchy.t -> Prospector.Jungloid.t -> bool
(** No error-severity finding (warnings and infos are allowed). *)
