(** Sidechain-defined [proofdata]: typed variables whose semantics the
    mainchain does not know (paper §4.1.2, Def. 4.4).

    The mainchain only fixes the *types* of the elements (declared in
    the sidechain configuration) and folds them into a Merkle root
    [MH(proofdata)] that becomes one public input of the SNARK
    verifier, keeping the public-input vector short. *)

open Zen_crypto

type elem =
  | Field of Fp.t      (** a SNARK-field element *)
  | Digest of Hash.t   (** a 32-byte hash *)
  | Uint of int        (** a non-negative integer *)
  | Blob of string     (** opaque bytes *)

type elem_type = Tfield | Tdigest | Tuint | Tblob

type t = elem list
type schema = elem_type list

val matches : schema -> t -> bool
(** Structural check the mainchain performs on submission. *)

val root_fp : t -> Fp.t
(** [MH(proofdata)], the Merkle root over the element hashes, projected
    into the SNARK field — the form in which it enters the public
    input. *)

val encode : t -> string
