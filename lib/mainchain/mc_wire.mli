(** Wire format for mainchain transactions and blocks.

    What a mainchain node would gossip to its peers. Decoders validate
    key and signature formats while parsing; consensus-level validation
    (PoW, state transition) still happens in {!Chain_state} — decoding
    only guarantees well-formedness. *)

val encode_tx : Tx.t -> string
val decode_tx : string -> (Tx.t, string) result

val encode_block : Block.t -> string
val decode_block : string -> (Block.t, string) result

val encode_header : Block.header -> string
val decode_header : string -> (Block.header, string) result

val block_size_bytes : Block.t -> int
