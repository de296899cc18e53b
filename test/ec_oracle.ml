(* The reference secp256k1 curve and Schnorr scheme the production
   [Ec] and [Schnorr] must agree with: every field operation is a
   generic [Bignum.Modring] call and scalar multiplication is plain
   double-and-add, so each step is easy to check by eye.
   y^2 = x^3 + 7 over F_p. Points are kept in Jacobian coordinates
   (X, Y, Z) with x = X/Z^2, y = Y/Z^3; infinity is Z = 0. *)

open Zen_crypto

let p =
  Bignum.of_hex
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let n =
  Bignum.of_hex
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let gx =
  Bignum.of_hex
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

let gy =
  Bignum.of_hex
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"

let fp = Bignum.Modring.create p
let scalar_ring = Bignum.Modring.create n

module F = struct
  let add = Bignum.Modring.add fp
  let sub = Bignum.Modring.sub fp
  let mul = Bignum.Modring.mul fp
  let sq = Bignum.Modring.sq fp
  let inv = Bignum.Modring.inv_prime fp
  let of_int = Bignum.of_int
end

type point = { x : Bignum.t; y : Bignum.t; z : Bignum.t }

let infinity = { x = Bignum.one; y = Bignum.one; z = Bignum.zero }
let is_infinity pt = Bignum.is_zero pt.z

let seven = Bignum.of_int 7

let on_curve x y =
  Bignum.compare x p < 0
  && Bignum.compare y p < 0
  && Bignum.equal (F.sq y) (F.add (F.mul x (F.sq x)) seven)

let of_affine x y =
  if not (on_curve x y) then invalid_arg "Ec.of_affine: not on curve";
  { x; y; z = Bignum.one }

let to_affine pt =
  if is_infinity pt then None
  else begin
    let zi = F.inv pt.z in
    let zi2 = F.sq zi in
    Some (F.mul pt.x zi2, F.mul pt.y (F.mul zi2 zi))
  end

let g = of_affine gx gy

let double pt =
  if is_infinity pt || Bignum.is_zero pt.y then infinity
  else begin
    (* dbl-2009-l for a = 0: A = X^2, B = Y^2, C = B^2,
       D = 2((X+B)^2 - A - C), E = 3A, F = E^2,
       X' = F - 2D, Y' = E(D - X') - 8C, Z' = 2YZ. *)
    let a = F.sq pt.x in
    let b = F.sq pt.y in
    let c = F.sq b in
    let d =
      F.mul (F.of_int 2) (F.sub (F.sq (F.add pt.x b)) (F.add a c))
    in
    let e = F.mul (F.of_int 3) a in
    let f = F.sq e in
    let x' = F.sub f (F.mul (F.of_int 2) d) in
    let y' = F.sub (F.mul e (F.sub d x')) (F.mul (F.of_int 8) c) in
    let z' = F.mul (F.of_int 2) (F.mul pt.y pt.z) in
    { x = x'; y = y'; z = z' }
  end

let add p1 p2 =
  if is_infinity p1 then p2
  else if is_infinity p2 then p1
  else begin
    (* add-2007-bl. *)
    let z1z1 = F.sq p1.z in
    let z2z2 = F.sq p2.z in
    let u1 = F.mul p1.x z2z2 in
    let u2 = F.mul p2.x z1z1 in
    let s1 = F.mul p1.y (F.mul p2.z z2z2) in
    let s2 = F.mul p2.y (F.mul p1.z z1z1) in
    if Bignum.equal u1 u2 then
      if Bignum.equal s1 s2 then double p1 else infinity
    else begin
      let h = F.sub u2 u1 in
      let i = F.sq (F.mul (F.of_int 2) h) in
      let j = F.mul h i in
      let r = F.mul (F.of_int 2) (F.sub s2 s1) in
      let v = F.mul u1 i in
      let x3 = F.sub (F.sub (F.sq r) j) (F.mul (F.of_int 2) v) in
      let y3 =
        F.sub (F.mul r (F.sub v x3)) (F.mul (F.of_int 2) (F.mul s1 j))
      in
      let z3 = F.mul h (F.mul (F.of_int 2) (F.mul p1.z p2.z)) in
      { x = x3; y = y3; z = z3 }
    end
  end

let neg pt = if is_infinity pt then pt else { pt with y = Bignum.sub p pt.y }

let mul k pt =
  let k = Bignum.Modring.reduce scalar_ring k in
  let nb = Bignum.num_bits k in
  let acc = ref infinity in
  for i = nb - 1 downto 0 do
    acc := double !acc;
    if Bignum.bit k i then acc := add !acc pt
  done;
  !acc

let equal p1 p2 =
  match (to_affine p1, to_affine p2) with
  | None, None -> true
  | Some (x1, y1), Some (x2, y2) -> Bignum.equal x1 x2 && Bignum.equal y1 y2
  | _ -> false

let encode pt =
  match to_affine pt with
  | None -> "\000"
  | Some (x, y) ->
    "\004" ^ Bignum.to_bytes_be ~len:32 x ^ Bignum.to_bytes_be ~len:32 y

let decode s =
  if String.equal s "\000" then Some infinity
  else if String.length s = 65 && s.[0] = '\004' then begin
    let x = Bignum.of_bytes_be (String.sub s 1 32) in
    let y = Bignum.of_bytes_be (String.sub s 33 32) in
    if on_curve x y then Some (of_affine x y) else None
  end
  else None

(* Schnorr as the production scheme signs and verifies it: the same
   key derivation, HMAC nonce, challenge hash and 96-byte encoding, on
   the curve above. *)
module Schnorr = struct
  type signature = { r : point; s : Bignum.t }

  let ring = scalar_ring

  let scalar_of_hash_material material =
    let rec go counter =
      let h = Sha256.digest_list [ material; string_of_int counter ] in
      let k = Bignum.Modring.reduce ring (Bignum.of_bytes_be h) in
      if Bignum.is_zero k then go (counter + 1) else k
    in
    go 0

  let of_seed seed =
    let sk =
      scalar_of_hash_material (Sha256.digest ("zendoo.schnorr.keygen" ^ seed))
    in
    (sk, mul sk g)

  let challenge r pk msg =
    scalar_of_hash_material
      (Sha256.digest_list [ "zendoo.schnorr.e"; encode r; encode pk; msg ])

  let sign sk msg =
    let pk = mul sk g in
    let k =
      scalar_of_hash_material
        (Sha256.hmac ~key:(Bignum.to_bytes_be ~len:32 sk) msg)
    in
    let r = mul k g in
    let e = challenge r pk msg in
    { r; s = Bignum.Modring.add ring k (Bignum.Modring.mul ring e sk) }

  let verify pk msg { r; s } =
    (not (is_infinity r))
    && Bignum.compare s n < 0
    &&
    let e = challenge r pk msg in
    equal (mul s g) (add r (mul e pk))

  let sig_encode { r; s } =
    (match to_affine r with
    | None -> String.make 64 '\000'
    | Some (x, y) -> Bignum.to_bytes_be ~len:32 x ^ Bignum.to_bytes_be ~len:32 y)
    ^ Bignum.to_bytes_be ~len:32 s

  let sig_decode b =
    if String.length b <> 96 then None
    else begin
      let x = Bignum.of_bytes_be (String.sub b 0 32) in
      let y = Bignum.of_bytes_be (String.sub b 32 32) in
      let s = Bignum.of_bytes_be (String.sub b 64 32) in
      if Bignum.is_zero x && Bignum.is_zero y then Some { r = infinity; s }
      else if on_curve x y then Some { r = of_affine x y; s }
      else None
    end
end
