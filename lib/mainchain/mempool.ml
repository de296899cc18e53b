open Zen_crypto

module type S = sig
  type elt
  type t

  val empty : t
  val add : t -> elt -> t
  val remove : t -> Hash.t -> t
  val remove_txs : t -> elt list -> t
  val reinject_front : t -> elt list -> t
  val txs : t -> elt list
  val size : t -> int
end

module Make (T : sig type t val txid : t -> Hash.t end) = struct
  type elt = T.t

  type t = {
    order : (Hash.t * T.t) list; (* newest first *)
    ids : Hash.Set.t;
    count : int; (* |order|, carried so [size] is O(1) *)
  }

  let empty = { order = []; ids = Hash.Set.empty; count = 0 }

  let add t tx =
    let id = T.txid tx in
    if Hash.Set.mem id t.ids then t
    else
      {
        order = (id, tx) :: t.order;
        ids = Hash.Set.add id t.ids;
        count = t.count + 1;
      }

  (* Ids are unique in the pool, so removal can stop at the first hit
     and share the untouched tail instead of refiltering the whole
     list. *)
  let rec drop_first id acc = function
    | [] -> List.rev acc
    | ((txid, _) as entry) :: rest ->
      if Hash.equal txid id then List.rev_append acc rest
      else drop_first id (entry :: acc) rest

  let remove t id =
    if not (Hash.Set.mem id t.ids) then t
    else
      {
        order = drop_first id [] t.order;
        ids = Hash.Set.remove id t.ids;
        count = t.count - 1;
      }

  let remove_txs t = function
    | [] -> t
    | txs ->
      let included = Hash.Set.of_list (List.map T.txid txs) in
      let kept = ref 0 in
      let order =
        List.filter
          (fun (id, _) ->
            let keep = not (Hash.Set.mem id included) in
            if keep then incr kept;
            keep)
          t.order
      in
      { order; ids = Hash.Set.diff t.ids included; count = !kept }

  let reinject_front t recovered =
    let fresh, ids =
      List.fold_left
        (fun ((fresh, ids) as acc) tx ->
          let id = T.txid tx in
          if Hash.Set.mem id ids then acc
          else ((id, tx) :: fresh, Hash.Set.add id ids))
        ([], t.ids) recovered
    in
    (* [fresh] is newest-first among the recovered, which are older
       than the whole pool: they go at the newest-first list's tail. *)
    { order = t.order @ fresh; ids; count = t.count + List.length fresh }

  let txs t = List.rev_map snd t.order
  let size t = t.count
end

include Make (Tx)

let op_bounds = Zen_obs.Histogram.exponential_bounds ~lo:1e-7 ~factor:4. ~n:8

(* Block-connect purge latency. *)
let remove_included_s =
  Zen_obs.Histogram.make ~bounds:op_bounds "mempool.remove_included.seconds"

(* Reorg-reinjection latency. *)
let reinject_s =
  Zen_obs.Histogram.make ~bounds:op_bounds "mempool.reinject.seconds"

let remove_included t (b : Block.t) =
  Zen_obs.Histogram.time remove_included_s @@ fun () -> remove_txs t b.txs

(* Mempool recovery after a reorg: transactions of the abandoned branch
   return to the pool unless the new branch already carries them.
   Coinbases stay with their dead blocks. *)
let reinject_disconnected t ~disconnected ~connected =
  Zen_obs.Histogram.time reinject_s @@ fun () ->
  let included =
    List.fold_left
      (fun s (b : Block.t) ->
        List.fold_left (fun s tx -> Hash.Set.add (Tx.txid tx) s) s b.txs)
      Hash.Set.empty connected
  in
  List.fold_left
    (fun m (b : Block.t) ->
      List.fold_left
        (fun m tx ->
          match tx with
          | Tx.Coinbase _ -> m
          | _ -> if Hash.Set.mem (Tx.txid tx) included then m else add m tx)
        m b.txs)
    t disconnected
