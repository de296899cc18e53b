open Zen_crypto

type entry = {
  ledger_id : Hash.t;
  fts : Forward_transfer.t list;
  btrs : Mainchain_withdrawal.t list;
  wcert : Withdrawal_certificate.t option;
}

(* Sentinel ids bracketing every real ledger id in the sorted leaf
   order, so that absence of any id is witnessed by two adjacent
   leaves straddling it. *)
let min_sentinel = Hash.of_raw (String.make Hash.size '\000')
let max_sentinel = Hash.of_raw (String.make Hash.size '\255')

type leaf = { id : Hash.t; data : Hash.t (* entry hash; zero for sentinels *) }

type t = {
  leaves : leaf array; (* sorted by id, sentinels included *)
  tree : Merkle.t;
  by_id : int Hash.Map.t; (* ledger id -> leaf index, real entries only *)
}

(* The root of a subtree over no transactions, a constant. *)
let empty_subtree_root = Merkle.root (Merkle.of_leaves [])

let subtree_root hash = function
  | [] -> empty_subtree_root
  | txs -> Merkle.root (Merkle.of_leaves (List.map hash txs))

let txs_hash ~ft_root ~btr_root =
  Hash.tagged "scc.txs" [ Hash.to_raw ft_root; Hash.to_raw btr_root ]

(* TxsHash of an entry with no FTs and no BTRs, such as a certificate's
   only: the same for every ledger id. *)
let no_txs =
  txs_hash ~ft_root:empty_subtree_root ~btr_root:empty_subtree_root

let no_wcert = Hash.tagged "scc.no_wcert" []

let wcert_hash = function
  | None -> no_wcert
  | Some c -> Withdrawal_certificate.hash c

(* SCXHash = H(TxsHash | WCertHash | X), with TxsHash = H(FTHash | BTRHash)
   — the shape of Fig. 4. *)
let entry_hash e =
  let txs_hash =
    match (e.fts, e.btrs) with
    | [], [] -> no_txs
    | fts, btrs ->
      txs_hash
        ~ft_root:(subtree_root Forward_transfer.hash fts)
        ~btr_root:(subtree_root Mainchain_withdrawal.hash btrs)
  in
  Hash.tagged "scc.sc"
    [
      Hash.to_raw txs_hash;
      Hash.to_raw (wcert_hash e.wcert);
      Hash.to_raw e.ledger_id;
    ]

let leaf_hash leaf =
  Hash.tagged "scc.leaf" [ Hash.to_raw leaf.id; Hash.to_raw leaf.data ]

let build ?(pool = Pool.sequential) entries =
  Zen_obs.Trace.with_span ~cat:"core"
    ~args:[ ("entries", string_of_int (List.length entries)) ]
    "core.sc_commitment.build"
  @@ fun () ->
  let ids = List.map (fun e -> e.ledger_id) entries in
  let distinct = Hash.Set.of_list ids in
  if Hash.Set.cardinal distinct <> List.length ids then
    Error "sc commitment: duplicate ledger id"
  else if
    List.exists
      (fun e ->
        Hash.equal e.ledger_id min_sentinel
        || Hash.equal e.ledger_id max_sentinel)
      entries
  then Error "sc commitment: reserved ledger id"
  else begin
    (* Entries are independent work, mapped across the pool's domains.
       No two share a subtree worth memoizing: FT and BTR hashes bind
       their ledger id, so equal non-empty lists never occur under two
       ids, and empty lists share the constants above. *)
    let entries = Array.of_list entries in
    let real =
      Pool.init_array pool (Array.length entries) (fun i ->
          let e = entries.(i) in
          { id = e.ledger_id; data = entry_hash e })
      |> Array.to_list
    in
    let all =
      { id = min_sentinel; data = Hash.zero }
      :: { id = max_sentinel; data = Hash.zero }
      :: real
    in
    let leaves =
      Array.of_list (List.sort (fun a b -> Hash.compare a.id b.id) all)
    in
    let by_id =
      Array.to_list leaves
      |> List.mapi (fun i l -> (i, l))
      |> List.filter (fun (_, l) ->
             (not (Hash.equal l.id min_sentinel))
             && not (Hash.equal l.id max_sentinel))
      |> List.fold_left
           (fun acc (i, l) -> Hash.Map.add l.id i acc)
           Hash.Map.empty
    in
    let tree =
      Merkle.of_leaves (Array.to_list (Array.map leaf_hash leaves))
    in
    Ok { leaves; tree; by_id }
  end

let root t = Merkle.root t.tree

type membership = Merkle.proof

let prove_membership t ledger_id =
  match Hash.Map.find_opt ledger_id t.by_id with
  | None -> None
  | Some i -> Some (Merkle.prove t.tree i)

let verify_membership ~root ~ledger_id ~entry_hash proof =
  Merkle.verify ~root ~leaf:(leaf_hash { id = ledger_id; data = entry_hash }) proof

let membership_size_bytes = Merkle.proof_size_bytes

type absence = {
  left : leaf;
  left_proof : Merkle.proof;
  right : leaf;
  right_proof : Merkle.proof;
}

let prove_absence t ledger_id =
  if Hash.Map.mem ledger_id t.by_id then None
  else begin
    (* Find the straddling pair; sentinels guarantee it exists for any
       id strictly between them. *)
    let n = Array.length t.leaves in
    let rec find i =
      if i + 1 >= n then None
      else if
        Hash.compare t.leaves.(i).id ledger_id < 0
        && Hash.compare ledger_id t.leaves.(i + 1).id < 0
      then
        Some
          {
            left = t.leaves.(i);
            left_proof = Merkle.prove t.tree i;
            right = t.leaves.(i + 1);
            right_proof = Merkle.prove t.tree (i + 1);
          }
      else find (i + 1)
    in
    find 0
  end

let verify_absence ~root ~ledger_id a =
  Merkle.proof_index a.right_proof = Merkle.proof_index a.left_proof + 1
  && Hash.compare a.left.id ledger_id < 0
  && Hash.compare ledger_id a.right.id < 0
  && Merkle.verify ~root ~leaf:(leaf_hash a.left) a.left_proof
  && Merkle.verify ~root ~leaf:(leaf_hash a.right) a.right_proof

let ( let* ) = Wire.( let* )

let write_merkle_proof w p =
  Wire.u32 w (Merkle.proof_index p);
  Wire.list w (Wire.hash w) (Merkle.proof_to_siblings p)

let read_merkle_proof r =
  let* index = Wire.read_u32 r in
  let* siblings =
    Wire.read_list ~max:64 ~min_elem_size:Hash.size r Wire.read_hash
  in
  Ok (Merkle.proof_of_siblings ~index siblings)

let write_membership = write_merkle_proof
let read_membership = read_merkle_proof

let write_leaf w l =
  Wire.hash w l.id;
  Wire.hash w l.data

let read_leaf r =
  let* id = Wire.read_hash r in
  let* data = Wire.read_hash r in
  Ok { id; data }

let write_absence w a =
  write_leaf w a.left;
  write_merkle_proof w a.left_proof;
  write_leaf w a.right;
  write_merkle_proof w a.right_proof

let read_absence r =
  let* left = read_leaf r in
  let* left_proof = read_merkle_proof r in
  let* right = read_leaf r in
  let* right_proof = read_merkle_proof r in
  Ok { left; left_proof; right; right_proof }

let absence_size_bytes a =
  (2 * (2 * Hash.size))
  + Merkle.proof_size_bytes a.left_proof
  + Merkle.proof_size_bytes a.right_proof
