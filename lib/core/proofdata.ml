open Zen_crypto

type elem =
  | Field of Fp.t
  | Digest of Hash.t
  | Uint of int
  | Blob of string

type elem_type = Tfield | Tdigest | Tuint | Tblob

type t = elem list
type schema = elem_type list

let type_of = function
  | Field _ -> Tfield
  | Digest _ -> Tdigest
  | Uint _ -> Tuint
  | Blob _ -> Tblob

let matches schema pd =
  List.length schema = List.length pd
  && List.for_all2 (fun ty e -> type_of e = ty) schema pd

let encode_elem = function
  | Field f -> "F" ^ string_of_int (Fp.to_int f)
  | Digest d -> "D" ^ Hash.to_raw d
  | Uint n -> "U" ^ string_of_int n
  | Blob b -> "B" ^ b

let elem_hash e = Hash.tagged "proofdata.elem" [ encode_elem e ]
let root_fp pd =
  Hash.to_fp (Merkle.root (Merkle.of_leaves (List.map elem_hash pd)))

let encode pd = String.concat ";" (List.map encode_elem pd)
