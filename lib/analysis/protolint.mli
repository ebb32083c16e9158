(** Protocol lint: checks receiver call sequences and synthesized
    jungloids against a mined typestate model ([Protocol]).

    Client-code pass ([check], codes P00x) — over sequences reconstructed
    by [Mining.Protomine]:
    - [P001] (warning) rare transition: a method-pair the corpus never
      performs on this type, at a call site with enough evidence.
    - [P002] (warning) must-follow call missing: the sequence ends at a
      method the corpus always follows with another call.
    - [P003] (warning) use before producing call: the first call on the
      object is one no corpus client makes first.
    - [P004] (info) dead terminal call: the protocol-closing call's result
      is discarded.
    - [P005] (info) unknown method on a modeled type: the corpus never
      calls this method on this type at all.
    - [P006] (warning) cast-then-protocol-violation: a downcast-produced
      object whose first call is start-deviant ([P003] specialized to the
      paper's mined-downcast pattern, reported instead of [P003]).

    Jungloid vetting ([vet], codes J01x) — over a chain a query answered,
    as the query lint ({!Verify.findings}) runs it; the query itself never
    vets. Only objects the chain itself produces are checked (the
    query input's provenance is unknown, and the final output's life
    continues in user code):
    - [J010] (warning) the single call the chain makes on a synthesized
      intermediate is one no corpus client makes first on that type.
    - [J011] (warning) must-follow call left dangling: the chain abandons
      an object right after a call the corpus always follows up.
    - [J012] (warning) downcast-then-deviant call ([J010] where the
      intermediate came from the chain's own downcast). *)

module Jungloid = Prospector.Jungloid

val check : Protocol.model -> Protocol.sequence list -> Diagnostic.t list
(** Sorted with [Diagnostic.compare], duplicates removed. All checks gate
    on the model's [min_evidence], so an empty model accepts everything. *)

val vet : Protocol.model -> Jungloid.t -> Diagnostic.t list
(** Subjects are chain steps in [Verify]'s ["step i (elem)"] style. *)

val violations : Protocol.model -> Jungloid.t -> string list
(** {!vet} rendered one line per finding; empty means the chain is clean. *)
