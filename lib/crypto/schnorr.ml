(* A secret key carries its public key, computed once at generation.
   A signature keeps the 32 bytes of [s] it was decoded from: any value
   decodes, and [verify] refuses s ≥ n. *)
type secret_key = { scalar : Ec.Scalar.t; pk : Ec.point }
type public_key = Ec.point
type signature = { r : Ec.point; s : string }

module S = Ec.Scalar

(* Map 32 hash bytes to a non-zero scalar mod n. *)
let scalar_of_hash_material material =
  let rec go counter =
    let k = S.reduce (Sha256.digest_list [ material; string_of_int counter ]) in
    if S.is_zero k then go (counter + 1) else k
  in
  go 0

let public_of_secret sk = sk.pk

let of_seed seed =
  let scalar =
    scalar_of_hash_material (Sha256.digest ("zendoo.schnorr.keygen" ^ seed))
  in
  let pk = Ec.mul_g scalar in
  ({ scalar; pk }, pk)

let pk_encode = Ec.encode
(* The point at infinity is no key: s·G = R + e·O holds for R = s·G on
   every message. *)
let pk_decode s =
  match Ec.decode s with
  | Some pk when not (Ec.is_infinity pk) -> Some pk
  | _ -> None
let pk_hash pk = Hash.tagged "schnorr.pk" [ Ec.encode pk ]

(* Signatures made and signature checks run (observation only). *)
let signs = Zen_obs.Counter.make "crypto.schnorr.signs"
let verifies = Zen_obs.Counter.make "crypto.schnorr.verifies"

let challenge r pk msg =
  scalar_of_hash_material
    (Sha256.digest_list [ "zendoo.schnorr.e"; Ec.encode r; Ec.encode pk; msg ])

let sign sk msg =
  Zen_obs.Counter.incr signs;
  (* Deterministic nonce: HMAC(sk, msg), per-key-and-message. *)
  let k = scalar_of_hash_material (Sha256.hmac ~key:(S.to_bytes sk.scalar) msg) in
  let r = Ec.mul_g k in
  let e = challenge r sk.pk msg in
  { r; s = S.to_bytes (S.add k (S.mul e sk.scalar)) }

let verify pk msg { r; s } =
  Zen_obs.Counter.incr verifies;
  (not (Ec.is_infinity pk))
  && (not (Ec.is_infinity r))
  &&
  match S.of_bytes s with
  | None -> false
  | Some s ->
    let e = challenge r pk msg in
    (* s·G = R + e·P *)
    Ec.sg_minus_ep_eq ~s ~e pk r

let sig_encode { r; s } =
  (if Ec.is_infinity r then String.make 64 '\000'
   else String.sub (Ec.encode r) 1 64)
  ^ s

let sig_decode b =
  if String.length b <> 96 then None
  else begin
    let xy = String.sub b 0 64 in
    let s = String.sub b 64 32 in
    if String.for_all (fun c -> c = '\000') xy then Some { r = Ec.infinity; s }
    else Option.map (fun r -> { r; s }) (Ec.decode ("\004" ^ xy))
  end
