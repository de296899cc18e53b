(** Schnorr signatures over secp256k1 (BIP340-flavoured, with the full
    nonce point carried in the signature instead of x-only keys).

    Authorizes UTXO spends on both chains and signs certifier
    endorsements in the baseline protocol. Nonces are derived
    deterministically from the secret key and message (RFC6979-style via
    HMAC), so signing never consumes ambient randomness. *)

type secret_key
type public_key
type signature

val of_seed : string -> secret_key * public_key
(** Keypair derived from a seed string (for reproducible fixtures). *)

val public_of_secret : secret_key -> public_key
(** Free: a secret key carries its public key. *)

val sign : secret_key -> string -> signature
(** One fixed-base scalar multiplication (the nonce point). *)

val verify : public_key -> string -> signature -> bool
(** False for a key at infinity, R at infinity, or s ≥ n. *)

val pk_encode : public_key -> string
(** 65-byte encoding; injective. *)

val pk_decode : string -> public_key option
(** [None] for anything but an on-curve point; the point at infinity
    (encoded as one zero byte) is not a key. *)

val pk_hash : public_key -> Hash.t
(** Address derivation: H(encoded pk). *)

val sig_encode : signature -> string
(** 96-byte encoding (R.x ‖ R.y ‖ s), with 64 zero bytes for an R at
    infinity; injective. *)

val sig_decode : string -> signature option
