open Zen_crypto
module Imap = Map.Make (Int)

type t = { len : int; entries : Hash.t Imap.t }

let empty = { len = 0; entries = Imap.empty }
let append t h = { len = t.len + 1; entries = Imap.add t.len h t.entries }

let get t i =
  if i < 0 || i >= t.len then None else Imap.find_opt i t.entries
