open Zen_crypto
open Zendoo

type coin = { addr : Hash.t; amount : Amount.t; spendable_after : int }

module M = Map.Make (String)

(* A per-address bucket is ordered by (amount, outpoint key), so its
   descending walk is the wallet's selection order. *)
module Value_key = struct
  type t = Amount.t * string

  let compare (a, k) (b, l) =
    match Amount.compare a b with 0 -> String.compare k l | c -> c
end

module By_value = Map.Make (Value_key)

(* Outpoints are keyed by their canonical encoding; decoding is never
   needed because folds carry the original outpoint alongside. *)
type entry = { outpoint : Tx.outpoint; coin : coin }

type t = {
  coins : entry M.t;
  by_addr : entry By_value.t M.t;
      (* secondary index: raw address -> ((amount, outpoint key) ->
         entry). Maintained by add/remove so wallet queries for one
         address never scan the full set. Always consistent with
         [coins]. *)
}

let empty = { coins = M.empty; by_addr = M.empty }
let key = Tx.outpoint_encode
let akey (c : coin) = Hash.to_raw c.addr

let find t o =
  Option.map (fun e -> e.coin) (M.find_opt (key o) t.coins)

let index_remove by_addr (c : coin) k =
  let addr = akey c in
  match M.find_opt addr by_addr with
  | None -> by_addr
  | Some bucket ->
    let bucket = By_value.remove (c.amount, k) bucket in
    if By_value.is_empty bucket then M.remove addr by_addr
    else M.add addr bucket by_addr

let add t o coin =
  let k = key o in
  let e = { outpoint = o; coin } in
  let by_addr =
    (* Overwriting an outpoint may change the coin's address or amount:
       the stale index entry must go first. *)
    match M.find_opt k t.coins with
    | Some old -> index_remove t.by_addr old.coin k
    | None -> t.by_addr
  in
  let bucket =
    Option.value (M.find_opt (akey coin) by_addr) ~default:By_value.empty
  in
  {
    coins = M.add k e t.coins;
    by_addr = M.add (akey coin) (By_value.add (coin.amount, k) e bucket) by_addr;
  }

let remove t o =
  let k = key o in
  match M.find_opt k t.coins with
  | None -> t
  | Some e ->
    {
      coins = M.remove k t.coins;
      by_addr = index_remove t.by_addr e.coin k;
    }

let apply_batch t changes =
  List.fold_left
    (fun t (o, c) ->
      match c with Some coin -> add t o coin | None -> remove t o)
    t changes


let fold t ~init ~f =
  M.fold (fun _ e acc -> f acc e.outpoint e.coin) t.coins init

let bucket t addr = M.find_opt (Hash.to_raw addr) t.by_addr

(* Same list the historical full scan produced (descending outpoint
   key), re-sorted from the bucket's value order. *)
let coins_of_addr t addr =
  match bucket t addr with
  | None -> []
  | Some b ->
    By_value.fold (fun (_, k) e acc -> (k, e) :: acc) b []
    |> List.sort (fun (k, _) (l, _) -> String.compare l k)
    |> List.map (fun (_, e) -> (e.outpoint, e.coin))

(* A k-way merge of the addresses' buckets, each walked from the top:
   [heads] holds each unfinished bucket's next binding and the rest of
   its walk. *)
let coins_by_value t addrs =
  let outranks ((a, _), _) ((b, _), _) = Value_key.compare a b > 0 in
  let rec merge heads () =
    match heads with
    | [] -> Seq.Nil
    | h :: hs ->
      let best = List.fold_left (fun b x -> if outranks x b then x else b) h hs in
      let (_, e), rest = best in
      let heads =
        List.filter_map
          (fun x -> if x == best then Seq.uncons rest else Some x)
          heads
      in
      Seq.Cons ((e.outpoint, e.coin), merge heads)
  in
  merge
    (List.filter_map
       (fun addr ->
         Option.bind (bucket t addr) (fun b -> Seq.uncons (By_value.to_rev_seq b)))
       addrs)
