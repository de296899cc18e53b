open Zen_crypto
open Zendoo

type coin = { addr : Hash.t; amount : Amount.t; spendable_after : int }

module M = Map.Make (String)

(* Outpoints are keyed by their canonical encoding; decoding is never
   needed because folds carry the original outpoint alongside. *)
type entry = { outpoint : Tx.outpoint; coin : coin }

type t = {
  coins : entry M.t;
  by_addr : entry M.t M.t;
      (* secondary index: raw address -> (outpoint key -> entry).
         Maintained by add/remove so wallet queries for one address
         never scan the full set. Always consistent with [coins]. *)
}

let empty = { coins = M.empty; by_addr = M.empty }
let key = Tx.outpoint_encode
let akey (c : coin) = Hash.to_raw c.addr

let find t o =
  Option.map (fun e -> e.coin) (M.find_opt (key o) t.coins)

let index_remove by_addr addr k =
  match M.find_opt addr by_addr with
  | None -> by_addr
  | Some bucket ->
    let bucket = M.remove k bucket in
    if M.is_empty bucket then M.remove addr by_addr
    else M.add addr bucket by_addr

let add t o coin =
  let k = key o in
  let e = { outpoint = o; coin } in
  let by_addr =
    (* Overwriting an outpoint may move the coin between addresses; the
       stale index entry must go first. *)
    match M.find_opt k t.coins with
    | Some old when not (Hash.equal old.coin.addr coin.addr) ->
      index_remove t.by_addr (akey old.coin) k
    | Some _ | None -> t.by_addr
  in
  let bucket =
    Option.value (M.find_opt (akey coin) by_addr) ~default:M.empty
  in
  {
    coins = M.add k e t.coins;
    by_addr = M.add (akey coin) (M.add k e bucket) by_addr;
  }

let remove t o =
  let k = key o in
  match M.find_opt k t.coins with
  | None -> t
  | Some e ->
    {
      coins = M.remove k t.coins;
      by_addr = index_remove t.by_addr (akey e.coin) k;
    }

let apply_batch t changes =
  List.fold_left
    (fun t (o, c) ->
      match c with Some coin -> add t o coin | None -> remove t o)
    t changes


let fold t ~init ~f =
  M.fold (fun _ e acc -> f acc e.outpoint e.coin) t.coins init

(* Same list the historical full scan produced (descending outpoint
   key): both fold ascending and prepend, and the bucket holds exactly
   the address's entries. *)
let coins_of_addr t addr =
  match M.find_opt (Hash.to_raw addr) t.by_addr with
  | None -> []
  | Some bucket -> M.fold (fun _ e acc -> (e.outpoint, e.coin) :: acc) bucket []
