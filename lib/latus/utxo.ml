open Zen_crypto
open Zendoo

type t = { addr : Hash.t; amount : Amount.t; nonce : Hash.t }

let make ~addr ~amount ~nonce = { addr; amount; nonce }

let derive_nonce ~source ~index =
  Hash.tagged "latus.nonce" [ Hash.to_raw source; string_of_int index ]

let commitment t =
  Poseidon.hash_list
    [ Hash.to_fp t.addr; Amount.to_fp t.amount; Hash.to_fp t.nonce ]

let position ~mst_depth t =
  let h = Hash.tagged "latus.pos" [ Hash.to_raw t.nonce ] in
  Fp.to_int (Hash.to_fp h) land ((1 lsl mst_depth) - 1)

let hash t =
  Hash.tagged "latus.utxo"
    [
      Hash.to_raw t.addr;
      string_of_int (Amount.to_int t.amount);
      Hash.to_raw t.nonce;
    ]

let nullifier t = Hash.tagged "latus.nullifier" [ Hash.to_raw (hash t) ]
let equal a b = Hash.equal (hash a) (hash b)

let encode t =
  let amt = Bytes.create 8 in
  let a = Amount.to_int t.amount in
  for i = 0 to 7 do
    Bytes.set amt i (Char.chr ((a lsr (8 * (7 - i))) land 0xff))
  done;
  Hash.to_raw t.addr ^ Bytes.to_string amt ^ Hash.to_raw t.nonce

let decode s =
  if String.length s <> 72 then None
  else begin
    let addr = Hash.of_raw (String.sub s 0 32) in
    let a = ref 0 in
    for i = 0 to 7 do
      a := (!a lsl 8) lor Char.code s.[32 + i]
    done;
    let nonce = Hash.of_raw (String.sub s 40 32) in
    match Amount.of_int !a with
    | Error _ -> None
    | Ok amount -> Some { addr; amount; nonce }
  end
