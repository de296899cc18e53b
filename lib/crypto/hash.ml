type t = string

let size = 32

let of_raw s =
  if String.length s <> size then invalid_arg "Hash.of_raw: need 32 bytes";
  s

let to_raw t = t
let zero = String.make size '\000'
let of_string s = Sha256.digest s

(* Length-framed, tagged hashing: H(len(tag) | tag | len(p1) | p1 | ...)
   so distinct part lists can never produce the same preimage. Each
   length is [Printf "%08x"]: 8 lowercase hex digits, more from 2^32
   on. Below that the digits are written into one buffer per call, and
   it and the part are fed to the context without building a frame. *)
let hex_digits = "0123456789abcdef"

let tagged tag parts =
  let ctx = Sha256.init () in
  let len = Bytes.create 8 in
  let frame s =
    let n = String.length s in
    if n < 0x1_0000_0000 then begin
      for i = 0 to 7 do
        Bytes.unsafe_set len i hex_digits.[(n lsr (28 - (4 * i))) land 15]
      done;
      Sha256.feed_bytes ctx len
    end
    else Sha256.feed ctx (Printf.sprintf "%08x" n);
    Sha256.feed ctx s
  in
  frame tag;
  List.iter frame parts;
  Sha256.finalize ctx

let of_int n = of_string (string_of_int n)
let to_hex = Sha256.to_hex
let short_hex t = String.sub (to_hex t) 0 8

let to_fp t = Fp.of_bytes_le t
let equal = String.equal
let compare = String.compare

module Map = Map.Make (String)
module Set = Set.Make (String)
