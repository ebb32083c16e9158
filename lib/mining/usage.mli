(** Usage statistics mined from the corpus, and the probabilistic edge-cost
    model they induce (the [--ranking mined] mode).

    The paper ranks jungloids by a static length/crossings/specificity
    rule; follow-up work (probabilistic API mining, SWIM) shows that call
    frequencies mined from client code rank API sequences better. This
    module counts how often each elementary jungloid occurs in the
    corpus's extracted examples — the exact def-use traversal of
    {!Extract} — plus the co-occurrence of consecutive pairs, and smooths
    the unigram frequencies into non-negative additive edge costs:

    {v cost(e) = -log P(e) / -log P(unseen),
       P(e) = (count(e) + 1) / (N + V + 1) v}

    Laplace smoothing over the [N] mined occurrences and [V] distinct
    elems, with one unit of probability mass reserved for unseen elems, so
    every cost is finite; [count + 1 <= N + 1 <= N + V + 1] makes every
    cost non-negative. The normalization by the unseen-edge cost keeps the
    model commensurate with the paper's units: an edge the corpus never
    used costs exactly one paper unit, a mined edge costs less in
    proportion to its log-frequency, so [Mined] refines the paper order by
    discounting corpus-supported chains rather than re-scaling chain
    length against the free-variable charge. Costs are rounded to
    {!Prospector.Elem.cost_scale} fixed-point units so weighted search
    stays in deterministic integer arithmetic. Widening conversions keep
    cost 0 — they have no syntax, in either ranking mode.

    On the empty model ([N = V = 0]) every cost is 0 and weighted ranking
    degenerates to the paper order. Pair co-occurrence does not enter the
    (additive) search cost; it is mined for corpus diagnostics and
    reported by the stats surfaces. *)

module Elem = Prospector.Elem

type t

val empty : t

val of_examples : Extract.example list -> t
(** Count each elem occurrence across the examples (an elem appearing
    [k] times in one chain counts [k]), and each consecutive pair of
    non-widening elems. Deterministic in the example list, which
    {!Extract.extract} keeps identical at any job count. *)

val count : t -> Elem.t -> int
(** Mined occurrences of the elem; 0 when unseen. Widening conversions are
    never counted. *)

val pair_count : t -> Elem.t -> Elem.t -> int
(** Mined occurrences of the ordered pair as consecutive non-widening
    elems of one example. *)

val total : t -> int
(** [N]: total counted occurrences. *)

val distinct : t -> int
(** [V]: distinct counted elems. *)

val edge_cost : t -> Elem.t -> int
(** The smoothed cost above, in {!Prospector.Elem.cost_scale} units;
    0 for widening conversions. Always finite, never negative, and
    monotone: more frequently used elems cost less. *)

val floor_cost : t -> int
(** The smoothing floor — {!edge_cost} of any unseen (non-widening) elem,
    the maximum any elem can cost under this model: exactly
    {!Prospector.Elem.cost_scale} (one paper unit) on a non-empty model,
    0 on the empty one. *)
