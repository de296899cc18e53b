open Zen_crypto
open Zendoo

type distribution = {
  (* Cumulative upper bounds paired with addresses, sorted by address
     for determinism; binary search picks the winner. *)
  bounds : (int * Hash.t) array;
  total : Amount.t;
}

let of_list entries =
  let entries =
    List.filter (fun (_, a) -> not (Amount.is_zero a)) entries
    |> List.sort (fun (a, _) (b, _) -> Hash.compare a b)
  in
  let total =
    match Amount.sum (List.map snd entries) with
    | Ok t -> t
    | Error _ -> Amount.max_supply
  in
  let _, bounds =
    List.fold_left
      (fun (acc, out) (addr, amount) ->
        let acc = acc + Amount.to_int amount in
        (acc, (acc, addr) :: out))
      (0, []) entries
  in
  { bounds = Array.of_list (List.rev bounds); total }

let of_mst mst =
  let module M = Hash.Map in
  let stakes =
    List.fold_left
      (fun m (_, (u : Utxo.t)) ->
        let prev = Option.value (M.find_opt u.addr m) ~default:Amount.zero in
        let v =
          match Amount.add prev u.amount with Ok v -> v | Error _ -> prev
        in
        M.add u.addr v m)
      M.empty (Mst.all_utxos mst)
  in
  of_list (M.bindings stakes)

let is_empty d = Array.length d.bounds = 0

let select d ~rand ~slot =
  if is_empty d then None
  else begin
    let total = Amount.to_int d.total in
    let draw =
      let h = Hash.tagged "latus.leader" [ Hash.to_raw rand; string_of_int slot ] in
      let rng = Rng.of_hash h in
      Rng.int rng total
    in
    (* First bound strictly greater than the draw. *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if fst d.bounds.(mid) <= draw then search (mid + 1) hi
        else search lo mid
      end
    in
    Some (snd d.bounds.(search 0 (Array.length d.bounds - 1)))
  end
