(** Deterministic, seedable PRNG (splitmix64).

    Every randomized component of the reproduction — slot-leader
    election, workload generators, key generation in tests — draws from
    this generator so that experiments are bit-reproducible from a seed.

    {2 Seeding discipline under domains}

    A generator is a single mutable cell and is {b not} safe to share
    across domains: concurrent [next64] calls race on [state] and, worse,
    make every drawn value depend on scheduling, destroying
    reproducibility. The discipline for parallel code (see {!Pool}):

    - never capture an [Rng.t] inside a task that a pool may run on
      another domain;
    - instead, derive one generator {e per task} with {!derive}, in any
      order (even from inside the tasks): it is a pure function of the
      parent's current state and the task index;
    - anything drawn before the parallel section (e.g. the
      worker-dispatch assignment of §5.4.1) can keep using the parent
      sequentially.

    Followed, this makes parallel results bit-identical to the
    sequential ones for every domain count, which is what the
    determinism tests in [test/t_pool.ml] enforce. *)

type t

val create : int -> t
(** Seed from an integer. *)

val of_hash : Hash.t -> t
(** Seed from a digest (e.g. epoch randomness). *)

val derive : t -> int -> t
(** [derive t i] is an independent stream for task [i], a {e pure}
    function of [t]'s current state and [i]: the parent does not
    advance, and [derive t i] may be called concurrently from several
    domains. Distinct [i] give decorrelated streams (splitmix64
    finalizer over the offset state). This is the per-task seeding
    primitive for {!Pool}-parallel code. *)

val next64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val bool : t -> bool
val bytes : t -> int -> string
val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
