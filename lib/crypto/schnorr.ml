(* A secret key carries its public key, computed once at generation,
   and its scalar's bytes (the nonce HMAC key). *)
type secret_key = { scalar : Bignum.t; key_bytes : string; pk : Ec.point }
type public_key = Ec.point
type signature = { r : Ec.point; s : Bignum.t }

let ring = Ec.scalar_ring

(* Map 32 hash bytes to a non-zero scalar mod n. *)
let scalar_of_hash_material material =
  let rec go counter =
    let h =
      Sha256.digest_list [ material; string_of_int counter ]
    in
    let k = Bignum.Modring.reduce ring (Bignum.of_bytes_be h) in
    if Bignum.is_zero k then go (counter + 1) else k
  in
  go 0

let public_of_secret sk = sk.pk

let of_seed seed =
  let scalar =
    scalar_of_hash_material (Sha256.digest ("zendoo.schnorr.keygen" ^ seed))
  in
  let pk = Ec.mul_g scalar in
  ({ scalar; key_bytes = Bignum.to_bytes_be ~len:32 scalar; pk }, pk)

let generate rng = of_seed (Rng.bytes rng 32)

let pk_encode = Ec.encode
(* The point at infinity is no key: s·G = R + e·O holds for R = s·G on
   every message. *)
let pk_decode s =
  match Ec.decode s with
  | Some pk when not (Ec.is_infinity pk) -> Some pk
  | _ -> None
let pk_equal = Ec.equal
let pk_hash pk = Hash.tagged "schnorr.pk" [ Ec.encode pk ]

let challenge r pk msg =
  scalar_of_hash_material
    (Sha256.digest_list [ "zendoo.schnorr.e"; Ec.encode r; Ec.encode pk; msg ])

let sign sk msg =
  (* Deterministic nonce: HMAC(sk, msg), per-key-and-message. *)
  let k = scalar_of_hash_material (Sha256.hmac ~key:sk.key_bytes msg) in
  let r = Ec.mul_g k in
  let e = challenge r sk.pk msg in
  let s = Bignum.Modring.add ring k (Bignum.Modring.mul ring e sk.scalar) in
  { r; s }

let verify pk msg { r; s } =
  (not (Ec.is_infinity pk))
  && (not (Ec.is_infinity r))
  && Bignum.compare s Ec.n < 0
  &&
  let e = challenge r pk msg in
  (* s·G = R + e·P *)
  Ec.sg_minus_ep_eq ~s ~e pk r

let sig_encode { r; s } =
  if Ec.is_infinity r then String.make 96 '\000'
  else String.sub (Ec.encode r) 1 64 ^ Bignum.to_bytes_be ~len:32 s

let sig_decode b =
  if String.length b <> 96 then None
  else begin
    let xy = String.sub b 0 64 in
    let s = Bignum.of_bytes_be (String.sub b 64 32) in
    if String.for_all (fun c -> c = '\000') xy then Some { r = Ec.infinity; s }
    else Option.map (fun r -> { r; s }) (Ec.decode ("\004" ^ xy))
  end

let pp_pk fmt pk = Hash.pp fmt (pk_hash pk)
