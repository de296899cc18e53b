(** The mainchain UTXO set: a persistent map from outpoint to coin.

    Persistence (structural sharing) is what makes fork handling cheap:
    every block's post-state is retained and a reorg is just a pointer
    switch to another block's state. *)

open Zen_crypto
open Zendoo

type coin = {
  addr : Hash.t;
  amount : Amount.t;
  spendable_after : int;
      (** maturity height: coinbase and certificate payouts cannot be
          spent until the height is strictly greater *)
}

type t

val empty : t
val find : t -> Tx.outpoint -> coin option
val add : t -> Tx.outpoint -> coin -> t
val remove : t -> Tx.outpoint -> t
val cardinal : t -> int
val fold : t -> init:'a -> f:('a -> Tx.outpoint -> coin -> 'a) -> 'a

val apply_batch : t -> (Tx.outpoint * coin option) list -> t
(** Applies a change list in order ([Some coin] adds/overwrites,
    [None] removes) — equivalent to the corresponding fold of {!add} /
    {!remove}, provided as the single entry point block application
    batches its coin flips through. *)

val coins_of_addr : t -> Hash.t -> (Tx.outpoint * coin) list
(** All coins held by one address, served from a per-address secondary
    index maintained by {!add}/{!remove}: O(log n + k) for k coins
    rather than a scan of the full set. Result identical (same coins,
    same order) to the naive filter-fold over the whole set. *)
