(* FIPS 180-4 SHA-256 on 32-bit words carried in OCaml's 63-bit ints.
   Only the words that get rotated are masked to 32 bits: the working
   variables [a] and [e] and the message schedule. Every other sum may
   carry past bit 31, and its low 32 bits stay exact, because addition,
   [land], [lor] and [lxor] never move high bits down. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask32 = 0xffffffff

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
  w : int array; (* message schedule: a ring of the last 16 words *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 16 0;
  }

(* Rotations of a 32-bit [x]: [d = x ‖ x] (bit 31 of the upper copy
   falls off the 63-bit int, and no shift below needs it), so bits
   [0..31] of [d lsr n] are [x] rotated right by [n]. The bits above 31
   are garbage; callers mask the sums these feed into. *)
let[@inline] sum0 a =
  let d = a lor (a lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] sum1 e =
  let d = e lor (e lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

(* Ring slot [j mod 16], and round [r + j]'s constant plus schedule word
   (in slot [o + j]). Callers keep [r + j < 64] and [o + j < 16]. *)
let[@inline] slot (w : int array) j = Array.unsafe_get w (j land 15)
let[@inline] kw w r o j = Array.unsafe_get k (r + j) + Array.unsafe_get w (o + j)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask32
  done;
  let ra = ref h.(0) and rb = ref h.(1) and rc = ref h.(2) and rd = ref h.(3) in
  let re = ref h.(4) and rf = ref h.(5) and rg = ref h.(6) and rh = ref h.(7) in
  for blk = 0 to 7 do
    let r = 8 * blk and o = 8 * (blk land 1) in
    (* Rounds r..r+7 read ring slots o..o+7; from round 16 on, first
       overwrite them with schedule words r..r+7. *)
    if blk >= 2 then
      for i = o to o + 7 do
        w.(i) <-
          (slot w i + sigma0 (slot w (i + 1)) + slot w (i + 9)
          + sigma1 (slot w (i + 14)))
          land mask32
      done;
    (* Round j makes the new [a] and [e] (named a(j+1), e(j+1)); the
       other six roles are the previous rounds' values, renamed. *)
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and hh = !rh in
    let t = hh + sum1 e + ch e f g + kw w r o 0 in
    let e1 = (d + t) land mask32 and a1 = (t + sum0 a + maj a b c) land mask32 in
    let t = g + sum1 e1 + ch e1 e f + kw w r o 1 in
    let e2 = (c + t) land mask32 and a2 = (t + sum0 a1 + maj a1 a b) land mask32 in
    let t = f + sum1 e2 + ch e2 e1 e + kw w r o 2 in
    let e3 = (b + t) land mask32 and a3 = (t + sum0 a2 + maj a2 a1 a) land mask32 in
    let t = e + sum1 e3 + ch e3 e2 e1 + kw w r o 3 in
    let e4 = (a + t) land mask32 and a4 = (t + sum0 a3 + maj a3 a2 a1) land mask32 in
    let t = e1 + sum1 e4 + ch e4 e3 e2 + kw w r o 4 in
    let e5 = (a1 + t) land mask32 and a5 = (t + sum0 a4 + maj a4 a3 a2) land mask32 in
    let t = e2 + sum1 e5 + ch e5 e4 e3 + kw w r o 5 in
    let e6 = (a2 + t) land mask32 and a6 = (t + sum0 a5 + maj a5 a4 a3) land mask32 in
    let t = e3 + sum1 e6 + ch e6 e5 e4 + kw w r o 6 in
    let e7 = (a3 + t) land mask32 and a7 = (t + sum0 a6 + maj a6 a5 a4) land mask32 in
    let t = e4 + sum1 e7 + ch e7 e6 e5 + kw w r o 7 in
    let e8 = (a4 + t) land mask32 and a8 = (t + sum0 a7 + maj a7 a6 a5) land mask32 in
    ra := a8; rb := a7; rc := a6; rd := a5;
    re := e8; rf := e7; rg := e6; rh := e5
  done;
  h.(0) <- (h.(0) + !ra) land mask32;
  h.(1) <- (h.(1) + !rb) land mask32;
  h.(2) <- (h.(2) + !rc) land mask32;
  h.(3) <- (h.(3) + !rd) land mask32;
  h.(4) <- (h.(4) + !re) land mask32;
  h.(5) <- (h.(5) + !rf) land mask32;
  h.(6) <- (h.(6) + !rg) land mask32;
  h.(7) <- (h.(7) + !rh) land mask32

let feed_sub ctx (data : Bytes.t) pos len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  (* Top up a partially-filled block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

(* Message bytes absorbed, before padding. *)
let bytes_hashed = Zen_obs.Counter.make "crypto.sha256.bytes"

let feed ctx s =
  Zen_obs.Counter.add bytes_hashed (String.length s);
  feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_bytes ctx b =
  Zen_obs.Counter.add bytes_hashed (Bytes.length b);
  feed_sub ctx b 0 (Bytes.length b)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    if r = 0 then 1 + 8 else 1 + 8 + (64 - r)
  in
  let pad = Bytes.make (pad_len - 8) '\000' in
  Bytes.set pad 0 '\x80';
  let len_bytes = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set len_bytes i (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  (* Feeding the length must not count toward [total]; snapshot-free
     trick: feed pad+len through the normal path, total is unused after.
     Goes via [feed_sub] so padding stays out of the byte counter. *)
  feed_sub ctx pad 0 (Bytes.length pad);
  feed_sub ctx len_bytes 0 8;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let ipad = Bytes.make 64 '\x36' and opad = Bytes.make 64 '\x5c' in
  String.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    key;
  let inner = digest_list [ Bytes.to_string ipad; msg ] in
  digest_list [ Bytes.to_string opad; inner ]

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents buf
