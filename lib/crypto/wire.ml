type writer = Buffer.t

let writer () = Buffer.create 256
let contents = Buffer.contents

let u8 w n =
  if n < 0 || n > 0xff then invalid_arg "Wire.u8: out of range";
  Buffer.add_char w (Char.chr n)

let u32 w n =
  if n < 0 || n > 0xffffffff then invalid_arg "Wire.u32: out of range";
  for i = 0 to 3 do
    Buffer.add_char w (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let u63 w n =
  if n < 0 then invalid_arg "Wire.u63: negative";
  for i = 0 to 7 do
    Buffer.add_char w (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let bool w b = u8 w (if b then 1 else 0)
let fixed w s = Buffer.add_string w s

let varbytes w s =
  u32 w (String.length s);
  Buffer.add_string w s

let hash w h = fixed w (Hash.to_raw h)
let fp w x = u63 w (Fp.to_int x)

let list w f xs =
  u32 w (List.length xs);
  List.iter f xs

let option w f = function
  | None -> bool w false
  | Some x ->
    bool w true;
    f x

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let remaining r = String.length r.data - r.pos

let ( let* ) = Result.bind

let take r n =
  if n < 0 then Error "wire: negative length"
  else if remaining r < n then Error "wire: unexpected end of input"
  else begin
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    Ok s
  end

let read_u8 r =
  let* s = take r 1 in
  Ok (Char.code s.[0])

let read_le r n =
  let* s = take r n in
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  Ok !v

let read_u32 r = read_le r 4

let read_u63 r =
  let* s = take r 8 in
  (* An OCaml int holds 63 bits including the sign, so the writer never
     emits a top byte above 0x3f. The shift-accumulate below would
     silently drop bit 63 (0x80 lsl 56 wraps to zero), letting two
     different byte strings decode to the same value — reject the whole
     out-of-range top-byte band up front instead. *)
  if Char.code s.[7] > 0x3f then Error "wire: u63 overflow"
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code s.[i]
    done;
    Ok !v
  end

let read_bool r =
  let* b = read_u8 r in
  match b with
  | 0 -> Ok false
  | 1 -> Ok true
  | _ -> Error "wire: invalid boolean"

let read_fixed r n = take r n

let read_varbytes ?(max = 1 lsl 24) r =
  let* n = read_u32 r in
  if n > max then Error "wire: varbytes too long"
  else if n > remaining r then
    Error "wire: varbytes length exceeds remaining input"
  else take r n

let read_hash r =
  let* s = take r Hash.size in
  Ok (Hash.of_raw s)

let read_fp r =
  let* v = read_u63 r in
  if v >= Fp.p then Error "wire: field element out of range"
  else Ok (Fp.of_int v)

let read_list ?(max = 1 lsl 20) ?(min_elem_size = 1) r f =
  let* n = read_u32 r in
  if n > max then Error "wire: list too long"
    (* A count whose minimum encoding cannot fit in the remaining bytes
       is rejected before the loop: a 5-byte message claiming 2^20
       elements must not allocate or iterate on the attacker's say-so. *)
  else if min_elem_size > 0 && n > remaining r / min_elem_size then
    Error "wire: list count exceeds remaining input"
  else begin
    let rec go i acc =
      if i = n then Ok (List.rev acc)
      else
        let* x = f r in
        go (i + 1) (x :: acc)
    in
    go 0 []
  end

let read_option r f =
  let* present = read_bool r in
  if present then
    let* x = f r in
    Ok (Some x)
  else Ok None

let expect_end r =
  if remaining r = 0 then Ok ()
  else Error (Printf.sprintf "wire: %d trailing bytes" (remaining r))

let encode write v =
  let w = writer () in
  write w v;
  contents w

let decode read s =
  let r = reader s in
  let* v = read r in
  let* () = expect_end r in
  Ok v
