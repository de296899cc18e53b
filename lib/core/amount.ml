type t = int

let zero = 0
let max_supply = 21_000_000 * 100_000_000
let amount_bits = 51 (* max_supply < 2^51 *)

let of_int n =
  if n < 0 then Error "amount: negative"
  else if n > max_supply then Error "amount: exceeds max supply"
  else Ok n

let of_int_exn n =
  match of_int n with Ok a -> a | Error e -> invalid_arg e

let to_int a = a

let add a b =
  let s = a + b in
  if s > max_supply then Error "amount: overflow" else Ok s

let sub a b = if a < b then Error "amount: underflow" else Ok (a - b)

let sum amounts =
  List.fold_left
    (fun acc a -> match acc with Error _ as e -> e | Ok x -> add x a)
    (Ok zero) amounts

let compare = Stdlib.compare
let equal (a : int) b = a = b
let ( <= ) (a : int) b = a <= b
let is_zero a = a = 0
let to_fp a = Zen_crypto.Fp.of_int a
let to_string a = Printf.sprintf "%d.%08d" (a / 100_000_000) (a mod 100_000_000)
