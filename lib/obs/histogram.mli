(** Fixed-bucket histograms with per-domain cells.

    Bucket bounds are fixed at creation ([observe] is a short linear
    scan — bound counts are small by design); each domain owns a
    private (counts, sum, count) cell, merged at read time. *)

type t

type snapshot = {
  count : int;
  sum : float;
  max : float;  (** largest observed value; [0.] when [count = 0] *)
  buckets : (float * int) list;
      (** cumulative-free per-bucket counts, paired with the bucket's
          inclusive upper bound; the final bucket's bound is
          [infinity]. *)
}

val make : bounds:float list -> string -> t
(** [make ~bounds name]: [bounds] are the finite upper bounds, strictly
    ascending; an implicit [+inf] bucket is appended. Idempotent by
    name (the first registration's bounds win). Raises
    [Invalid_argument] on empty or non-ascending bounds. *)

val exponential_bounds : lo:float -> factor:float -> n:int -> float list
(** [lo, lo*factor, lo*factor^2, …] — [n] bounds for latency-style
    histograms. *)

val observe : t -> float -> unit

val time : t -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and observes its {!Clock} wall-clock in [h]
    (also on exception, before re-raising). With the registry disabled
    this is [f ()] behind one branch — no clock reads. *)

val snapshot : t -> snapshot
(** Merged view across all domains. *)

val quantile : snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0. <= q <= 1.]) from
    the bucket counts: the bucket holding the rank-⌈q·count⌉
    observation is found by a cumulative walk and the value linearly
    interpolated inside its bounds. The estimate always falls in the
    same bucket as the exact order statistic (the interpolation can
    only be off within one bucket width), the top bucket is clamped to
    the tracked {!snapshot.max}, and [quantile s 1. = s.max] given the
    clamp. [0.] when the snapshot is empty. *)

val name : t -> string

val all : unit -> t list
(** Sorted by name. *)
