type schedule = { start_block : int; epoch_len : int; submit_len : int }

let of_config (c : Sidechain_config.t) =
  {
    start_block = c.start_block;
    epoch_len = c.epoch_len;
    submit_len = c.submit_len;
  }

let is_active_at s ~height = height >= s.start_block

let epoch_of_height s ~height =
  if height < s.start_block then None
  else Some ((height - s.start_block) / s.epoch_len)

let first_height s ~epoch = s.start_block + (epoch * s.epoch_len)
let last_height s ~epoch = first_height s ~epoch:(epoch + 1) - 1

let boundary_hashes s ~epoch ~block_hash_at =
  let resolve h = if h < 0 then Some Zen_crypto.Hash.zero else block_hash_at h in
  match
    (resolve (last_height s ~epoch:(epoch - 1)), resolve (last_height s ~epoch))
  with
  | Some a, Some b -> Some (a, b)
  | _ -> None

let submission_window s ~epoch =
  let lo = first_height s ~epoch:(epoch + 1) in
  (lo, lo + s.submit_len - 1)

let in_submission_window s ~epoch ~height =
  let lo, hi = submission_window s ~epoch in
  height >= lo && height <= hi

let ceased_at s ~last_certified_epoch ~height =
  (* The earliest epoch still lacking a certificate. *)
  let next_due =
    match last_certified_epoch with None -> 0 | Some e -> e + 1
  in
  let _, window_end = submission_window s ~epoch:next_due in
  height > window_end
