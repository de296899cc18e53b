type t = string

let size = 32

let of_raw s =
  if String.length s <> size then invalid_arg "Hash.of_raw: need 32 bytes";
  s

let to_raw t = t
let zero = String.make size '\000'
let of_string s = Sha256.digest s

(* Length-framed, tagged hashing: H(len(tag) | tag | len(p1) | p1 | ...)
   so distinct part lists can never produce the same preimage. *)
let tagged tag parts =
  let frame s = Printf.sprintf "%08x" (String.length s) ^ s in
  Sha256.digest_list (frame tag :: List.map frame parts)

let of_int n = of_string (string_of_int n)
let to_hex = Sha256.to_hex
let short_hex t = String.sub (to_hex t) 0 8

let to_fp t = Fp.of_bytes_le t
let equal = String.equal
let compare = String.compare

module Map = Map.Make (String)
module Set = Set.Make (String)
