(** Wire format for Latus sidechain objects: transactions, mainchain
    block references (with their commitment proofs) and sidechain
    blocks — everything a Latus node gossips to its peers. *)

val encode_tx : Sc_tx.t -> string
val decode_tx : string -> (Sc_tx.t, string) result

val mc_ref_size_bytes : Mc_ref.t -> int
(** Exact wire size — the quantity behind the §5.5.1 light-sync claim
    (experiment E12 compares it against full MC block bytes). *)

val encode_block : Sc_block.t -> string
val decode_block : string -> (Sc_block.t, string) result

val block_size_bytes : Sc_block.t -> int
