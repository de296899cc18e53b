(** The balanced Fig. 10 merge tree (paper Def. 2.5, Figs. 10–11),
    built online — the one tree shape of the repository. The epoch
    prover folds adjacent transition proofs through it
    ([Fold.create ~merge:(Recursive.merge sys)]); certificate
    aggregation folds wrapped certificates ([Aggregate.build]) and
    recomputes the root over leaf digests ([Aggregate.root_of_digests])
    through it too.

    Feed elements one at a time, in order; most merges happen {e during}
    feeding ({!push} merges equal-sized aligned subtrees eagerly, a
    binary-counter carry structure), leaving {!finish} at most
    ⌈log₂ n⌉ carry merges. The tree is the level-by-level one: level
    [k] pairs adjacent aligned blocks of 2{^k} leaves, and an odd
    trailing block is carried up unchanged. The finished result — and,
    on failure, the reported error — is {b byte-identical} to folding
    the same list level by level (the test suite keeps that batch fold
    as its oracle). This is what keeps the certify path of a pipelined
    node logarithmic ([Zen_latus.Proof_pipeline]). *)

type 'a t
(** Mutable fold state. Not thread-safe: push from one domain. *)

val create : merge:('a -> 'a -> ('a, string) result) -> 'a t
(** An empty fold whose internal nodes are [merge left right]. *)

val push : 'a t -> 'a -> unit
(** Appends the next element, running any eager merges it enables
    (amortized O(1) merges per push, worst case one carry chain). A
    failed merge is recorded and poisons the affected subtree;
    {!finish} reports the same error the level-by-level fold would. *)

val eager_merges : 'a t -> int
(** Merges already performed by {!push} — off the certify path. *)

val pending_merges : 'a t -> int
(** Carry merges {!finish} would run now: the stack height minus one,
    ≤ ⌈log₂ n⌉ after n {!push}es. *)

val finish : 'a t -> ('a, string) result
(** Folds the outstanding subtrees into the root (the carried
    trailing-element chain of the level-by-level fold). Non-destructive:
    the fold may be extended with further {!push}es and finished again —
    how a lost certificate is rebuilt without re-proving. Errors:
    ["fold_balanced: empty transition list"] when nothing was pushed,
    otherwise the first failing merge in the level-by-level fold's
    (level, pair) execution order. *)
