(** Slot-leader selection (paper §5.1).

    [Select(SD, rand)] assigns every slot of a consensus epoch a leader
    drawn from the stake distribution, proportionally to stake. The
    randomness is revealed only after the distribution is fixed
    (here: the hash of an earlier block), and selection is
    deterministic given [(SD, rand, slot)] so every node agrees. *)

open Zen_crypto
open Zendoo

type distribution

val of_mst : Mst.t -> distribution
(** Stake = total MST value per address. *)

val of_list : (Hash.t * Amount.t) list -> distribution

val select : distribution -> rand:Hash.t -> slot:int -> Hash.t option
(** The leader of [slot], or [None] on an empty distribution. *)
