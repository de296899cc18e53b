(** Withdrawal-epoch arithmetic (paper §4.1.2, Fig. 3).

    A sidechain's withdrawal epoch [i] is the MC-height interval
    [[start + i·len, start + (i+1)·len − 1]]. The certificate for epoch
    [i] must land within the first [submit_len] blocks of epoch [i+1];
    missing the window makes the sidechain *ceased* (Def. 4.2). All
    functions are pure height arithmetic so both chains and the tests
    agree on one schedule. *)

type schedule = { start_block : int; epoch_len : int; submit_len : int }

val of_config : Sidechain_config.t -> schedule

val is_active_at : schedule -> height:int -> bool
(** The sidechain processes transfers from [start_block] onwards. *)

val epoch_of_height : schedule -> height:int -> int option
(** [None] before activation. *)

val first_height : schedule -> epoch:int -> int
val last_height : schedule -> epoch:int -> int

val boundary_hashes :
  schedule ->
  epoch:int ->
  block_hash_at:(int -> Zen_crypto.Hash.t option) ->
  (Zen_crypto.Hash.t * Zen_crypto.Hash.t) option
(** The [(end_prev_epoch, end_epoch)] block hashes a certificate for
    [epoch] binds in its [wcert_sysdata]: the blocks at the last
    heights of epochs [epoch − 1] and [epoch], looked up with
    [block_hash_at], and [Hash.zero] for a height below 0 (before
    genesis). [None] when either block is not on the queried chain.
    The node builds certificates and the mainchain checks them through
    this one function, so both bind the same blocks. *)

val submission_window : schedule -> epoch:int -> int * int
(** Inclusive MC-height range in which a certificate for [epoch] is
    accepted. *)

val in_submission_window : schedule -> epoch:int -> height:int -> bool

val ceased_at : schedule -> last_certified_epoch:int option -> height:int -> bool
(** Whether a chain tip at [height] that has certificates up to
    [last_certified_epoch] (or none) implies the sidechain has ceased:
    true iff some epoch's submission window has fully elapsed without
    its certificate. *)

val pp : Format.formatter -> schedule -> unit
