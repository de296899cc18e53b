open Zen_crypto
open Zen_snark

(* ---------------------------------------------------------------- *)
(* Verification cache                                               *)
(* ---------------------------------------------------------------- *)

let obs_hit = Zen_obs.Counter.make "mc.verify.cache.hit"

let obs_miss = Zen_obs.Counter.make "mc.verify.cache.miss"

let obs_evict = Zen_obs.Counter.make "mc.verify.cache.eviction"

(* Per-proof SNARK verification latency (cache misses only; signature
   jobs are not timed here). *)
let obs_verify_s =
  Zen_obs.Histogram.make
    ~bounds:(Zen_obs.Histogram.exponential_bounds ~lo:1e-5 ~factor:4. ~n:8)
    "mc.verify.seconds"

module Cache = struct
  type stats = { hits : int; misses : int; insertions : int; evictions : int }

  let mu = Mutex.create ()

  (* Every field below is read and written under [mu]. *)
  let cap = ref 4096
  let table : (Hash.t, bool) Hashtbl.t = Hashtbl.create 1024
  let fifo : Hash.t Queue.t = Queue.create ()
  let hits = ref 0
  let misses = ref 0
  let insertions = ref 0
  let evictions = ref 0

  let locked f =
    Mutex.lock mu;
    match f () with
    | v ->
      Mutex.unlock mu;
      v
    | exception e ->
      Mutex.unlock mu;
      raise e

  let set_enabled b =
    if not b then
      invalid_arg "Verifier.Cache.set_enabled: the cache cannot be disabled"

  let size () = locked (fun () -> Hashtbl.length table)

  let stats () =
    locked (fun () ->
        {
          hits = !hits;
          misses = !misses;
          insertions = !insertions;
          evictions = !evictions;
        })

  let clear () =
    locked (fun () ->
        Hashtbl.reset table;
        Queue.clear fifo;
        hits := 0;
        misses := 0;
        insertions := 0;
        evictions := 0)

  (* FIFO eviction: within a block-validation burst every key is fresh,
     so recency tracking would buy nothing over insertion order. *)
  let evict_over_capacity () =
    let evicted = ref 0 in
    while Queue.length fifo > !cap do
      let victim = Queue.pop fifo in
      Hashtbl.remove table victim;
      incr evictions;
      incr evicted
    done;
    !evicted

  let set_capacity n =
    if n < 1 then invalid_arg "Verifier.Cache.set_capacity: capacity < 1";
    let evicted =
      locked (fun () ->
          cap := n;
          evict_over_capacity ())
    in
    Zen_obs.Counter.add obs_evict evicted

  let find key =
    let r =
      locked (fun () ->
          match Hashtbl.find_opt table key with
          | Some _ as r ->
            incr hits;
            r
          | None ->
            incr misses;
            None)
    in
    (match r with
    | Some _ -> Zen_obs.Counter.incr obs_hit
    | None -> Zen_obs.Counter.incr obs_miss);
    r

  let store key value =
    let evicted =
      locked (fun () ->
          if Hashtbl.mem table key then 0
          else begin
            Hashtbl.replace table key value;
            Queue.push key fifo;
            incr insertions;
            evict_over_capacity ()
          end)
    in
    Zen_obs.Counter.add obs_evict evicted
end

(* ---------------------------------------------------------------- *)
(* Verification jobs                                                *)
(* ---------------------------------------------------------------- *)

type job = { key : Hash.t; verify : unit -> bool }

let job_key j = j.key

let snark_job key verify =
  { key; verify = (fun () -> Zen_obs.Histogram.time obs_verify_s verify) }

(* Key soundness: [Backend.verify vk ~public proof] is a pure function
   of the vk digest (which fixes the simulated verify function), the
   public-input vector, and the proof bytes. [Withdrawal_certificate.hash]
   binds every certificate field the public input is derived from
   (quality, BTList root, proofdata encoding) but not the proof, so the
   proof bytes and the chain-supplied boundary hashes enter the key
   explicitly. Cheap because the certificate and the vk carry their
   digests (computed once when they were made; the private certificate
   type keeps the id in agreement with the fields), so the key is one
   short hash; the expensive part of verification is MH(proofdata),
   which the key never computes. The key is hashed when the job is
   made, not on first use: jobs cross pool domains, and a lazy key
   forced from two domains at once would race. So a job is made only
   where it may run: a certificate that a block's verified aggregate
   settles needs none (see [Sc_ledger.accept_cert]), and the
   aggregate path binds the same inputs through the leaf digest. *)
let wcert_job ~vk ~(cert : Withdrawal_certificate.t) ~end_prev_epoch ~end_epoch
    =
  snark_job
    (Hash.tagged "mc.verify.cache.wcert"
       [
         Hash.to_raw (Backend.vk_digest vk);
         Hash.to_raw (Withdrawal_certificate.hash cert);
         Backend.proof_encode cert.proof;
         Hash.to_raw end_prev_epoch;
         Hash.to_raw end_epoch;
       ])
    (fun () ->
      let public =
        Withdrawal_certificate.public_input cert ~end_prev_epoch ~end_epoch
      in
      Backend.verify vk ~public cert.proof)

let withdrawal_job ~vk ~(request : Mainchain_withdrawal.t) ~reference_block =
  snark_job
    (Hash.tagged "mc.verify.cache.withdrawal"
       [
         Hash.to_raw (Backend.vk_digest vk);
         Hash.to_raw (Mainchain_withdrawal.hash request);
         Backend.proof_encode request.proof;
         Hash.to_raw reference_block;
       ])
    (fun () ->
      let public = Mainchain_withdrawal.public_input request ~reference_block in
      Backend.verify vk ~public request.proof)

(* The aggregate's verify is one constant-time [Backend.verify]; caching
   it still pays because mempool re-checks and reorg replays revisit the
   same block. The key binds the aggregate vk, the merge root (which
   binds every covered certificate instance down to its proof bytes),
   the count and the aggregate proof itself. *)
let aggregate_job sys (agg : Aggregate.t) =
  snark_job
    (Hash.tagged "mc.verify.cache.aggregate"
       [
         Hash.to_raw (Aggregate.vk_digest sys);
         Hash.to_raw (Aggregate.root agg);
         string_of_int (Aggregate.count agg);
         Backend.proof_encode (Aggregate.proof agg);
       ])
    (fun () -> Aggregate.verify sys agg)

(* Bitcoin Core's signature cache, in the same bounded FIFO: a miner's
   trial application verifies a transfer input's signature, and
   connecting the block it built finds the verdict. [Schnorr.verify] is
   a pure function of the key, the message and the signature. The key
   encoding is injective, the message is length-framed by the tagged
   hash, and the signature encoding is injective except that every
   signature whose R is the point at infinity encodes to zeros; all of
   those verify false. *)
let signature_job ~pk ~msg ~signature =
  {
    key =
      Hash.tagged "mc.verify.cache.signature"
        [ Schnorr.pk_encode pk; msg; Schnorr.sig_encode signature ];
    verify = (fun () -> Schnorr.verify pk msg signature);
  }

let run_job j =
  match Cache.find j.key with
  | Some v -> v
  | None ->
    let v = j.verify () in
    Cache.store j.key v;
    v

let verify_batch ?(pool = Pool.sequential) jobs =
  let arr = Array.of_list jobs in
  let cached = Array.map (fun j -> Cache.find j.key) arr in
  let misses = ref [] in
  Array.iteri
    (fun i c -> if Option.is_none c then misses := i :: !misses)
    cached;
  let miss_idx = Array.of_list (List.rev !misses) in
  let verified =
    Pool.init_array pool (Array.length miss_idx) (fun k ->
        arr.(miss_idx.(k)).verify ())
  in
  Array.iteri
    (fun k i ->
      cached.(i) <- Some verified.(k);
      Cache.store arr.(i).key verified.(k))
    miss_idx;
  Array.to_list (Array.map Option.get cached)

let check_wcert_statics ~(config : Sidechain_config.t)
    ~(cert : Withdrawal_certificate.t) =
  if not (Hash.equal cert.ledger_id config.ledger_id) then
    Error "wcert: ledger id mismatch"
  else if not (Proofdata.matches config.wcert_proofdata cert.proofdata) then
    Error "wcert: proofdata does not match registered schema"
  else if cert.epoch_id < 0 then Error "wcert: negative epoch"
  else if cert.quality < 0 then Error "wcert: negative quality"
  else Ok ()

let check_withdrawal_statics ~(config : Sidechain_config.t)
    ~(request : Mainchain_withdrawal.t) =
  if not (Hash.equal request.ledger_id config.ledger_id) then
    Error "withdrawal: ledger id mismatch"
  else begin
    let schema =
      match request.kind with
      | Mainchain_withdrawal.Btr -> config.btr_proofdata
      | Mainchain_withdrawal.Csw -> config.csw_proofdata
    in
    if not (Proofdata.matches schema request.proofdata) then
      Error "withdrawal: proofdata does not match registered schema"
    else if Amount.is_zero request.amount then
      Error "withdrawal: zero amount"
    else Ok ()
  end
