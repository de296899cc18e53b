(** Deterministic workload engine: seeded synthetic traffic for soak
    runs against the Latus state layer.

    A run is a pure function of [(seed, profile)]: accounts are drawn
    from a zipfian rank distribution, per-phase transaction counts
    follow a diurnal (triangle-wave) shape, and the FT / BT / payment /
    BTR mix is configurable per profile. Each phase commits as one
    merged {!Zen_latus.Sc_tx.apply_steps} batch; a deterministic reorg
    schedule periodically rolls phases back to an O(1) copy-on-write
    checkpoint and re-mines them, which must restore the same state
    root. *)

open Zen_crypto

type mix = { payment : int; ft : int; bt : int; btr : int }
(** Percentages, each in [[0, 100]], summing to 100. *)

type profile = {
  name : string;
  users : int;  (** account population *)
  zipf : int;  (** zipf exponent × 100 (0 = uniform) *)
  txs_per_epoch : int;
  epochs : int;
  phases : int;  (** diurnal phases per epoch *)
  burst : int;  (** peak-phase amplitude, percent around the mean *)
  mix : mix;
  mst_depth : int;
  seed_coins : int;  (** initial UTXO population *)
  reorg_every : int;  (** reorg every n-th phase boundary; 0 = never *)
}

val smoke : profile
(** Seconds-scale: 5k users, 2k txs/epoch — CI and tests. *)

val soak : profile
(** The E17 profile: 1M users, 110k txs/epoch over 16 phases, 40%
    bursts, reorg every 7th phase. *)

val validate : profile -> (profile, string) result

val to_string : profile -> string
(** The builtin's name when structurally equal to one, else the custom
    [u..:z..:t..:e..:p..:b..:m..-..-..-..:d..:s..:r..] syntax. Round-trips
    through {!of_string}. *)

val of_string : string -> (profile, string) result
(** A builtin name ([smoke], [steady], [soak]) or the custom syntax
    produced by {!to_string}. *)

val phase_wave : phases:int -> burst:int -> int -> int
(** The diurnal shape: relative weight of phase [p] (mean 200 across an
    epoch, range [200 ± burst]) — also used by the harness driver to
    gate per-tick injection. *)

type stats = {
  profile : profile;
  applied : int;  (** transactions that produced state steps *)
  skipped : int;  (** generated but unplaceable (slot retries exhausted) *)
  payments : int;
  fts : int;
  bts : int;
  btrs : int;
  rollbacks : int;
  rolled_back_txs : int;
  replayed_phases : int;  (** phases re-mined after rollbacks *)
  epoch_roots : Fp.t list;  (** end-of-epoch state roots, oldest first *)
  digest : Hash.t;
      (** over (profile, seed, applied, skipped, epoch roots) *)
  wall_s : float;  (** wall clock; not deterministic, never logged *)
  peak_words : int;  (** Gc top_heap_words; not deterministic either *)
}

val run :
  ?batched:bool ->
  ?snapshots:bool ->
  ?log:(string -> unit) ->
  seed:int ->
  profile ->
  (stats, string) result
(** Runs the workload. [log] receives the deterministic progress lines.

    [batched] and [snapshots] are leftover labels: the benchmark in
    [perfbench/] still passes [~batched:true ~snapshots:true], the only
    accepted values; [false] for either raises [Invalid_argument]. The
    labels go when the benchmark stops passing them (ROADMAP item 1). *)
