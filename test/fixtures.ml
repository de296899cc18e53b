(* Values and references several test files share, built only from
   the libraries' public interfaces. *)

open Zen_crypto
open Zendoo

(* A fake clock for [Zen_obs.Clock.set]: each call returns
   [start + k * step] for k = 0, 1, 2, … (atomically counted, so it is
   monotone even across domains). *)
let deterministic_clock ?(start = 0.) ?(step = 1e-3) () =
  let k = Atomic.make 0 in
  fun () -> start +. (float_of_int (Atomic.fetch_and_add k 1) *. step)

(* An all-zero proof: well-formed bytes that no key verifies. *)
let zero_proof =
  Option.get
    (Zen_snark.Backend.proof_decode
       (String.make Zen_snark.Backend.proof_size_bytes '\000'))

let proof_equal a b =
  String.equal
    (Zen_snark.Backend.proof_encode a)
    (Zen_snark.Backend.proof_encode b)

(* The §5.2.1 BT accumulator step, written from its definition
   [acc' = H(acc, H(receiver, amount))]: the reference
   [Sc_state.append_bt] is checked against. *)
let bt_acc_step acc bt =
  let recv, amt = Backward_transfer.to_fp_pair bt in
  Poseidon.hash2 acc (Poseidon.hash2 recv amt)

(* The positions an [mst_delta] vector marks, ascending. *)
let delta_positions delta =
  let out = ref [] in
  for byte = Bytes.length delta - 1 downto 0 do
    let c = Char.code (Bytes.get delta byte) in
    if c <> 0 then
      for bit = 7 downto 0 do
        if c land (1 lsl bit) <> 0 then out := ((byte * 8) + bit) :: !out
      done
  done;
  !out

let sum_amounts coins =
  List.fold_left
    (fun acc (_, (u : Zen_latus.Utxo.t)) -> acc + Amount.to_int u.amount)
    0 coins

(* Value held by [addr], and by everyone, in an MST. *)
let balance mst addr = sum_amounts (Zen_latus.Mst.utxos_of mst addr)
let total_value mst = sum_amounts (Zen_latus.Mst.all_utxos mst)

let tip_block chain =
  Option.get
    (Zen_mainchain.Chain.block chain (Zen_mainchain.Chain.tip_hash chain))
