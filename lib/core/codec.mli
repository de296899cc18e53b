(** Wire formats for every CCTP object that crosses the network:
    forward/backward transfers, proofdata, withdrawal certificates,
    BTR/CSW requests and sidechain configurations.

    Writers are total; readers validate as they parse (amount bounds,
    schema tags, key formats) and return descriptive errors, so nodes
    can never be crashed by malformed messages. Top-level [encode_*] /
    [decode_*] pairs frame one object per buffer; the [write_*] /
    [read_*] pairs compose into larger messages (blocks). *)

open Zen_crypto

val write_amount : Wire.writer -> Amount.t -> unit
val read_amount : Wire.reader -> (Amount.t, string) result

val write_ft : Wire.writer -> Forward_transfer.t -> unit
val read_ft : Wire.reader -> (Forward_transfer.t, string) result

val write_bt : Wire.writer -> Backward_transfer.t -> unit
val read_bt : Wire.reader -> (Backward_transfer.t, string) result

val write_wcert : Wire.writer -> Withdrawal_certificate.t -> unit
val read_wcert : Wire.reader -> (Withdrawal_certificate.t, string) result

val write_withdrawal : Wire.writer -> Mainchain_withdrawal.t -> unit
val read_withdrawal : Wire.reader -> (Mainchain_withdrawal.t, string) result

val write_config : Wire.writer -> Sidechain_config.t -> unit
val read_config : Wire.reader -> (Sidechain_config.t, string) result

val encode_wcert : Withdrawal_certificate.t -> string
val decode_wcert : string -> (Withdrawal_certificate.t, string) result

val encode_withdrawal : Mainchain_withdrawal.t -> string
val decode_withdrawal : string -> (Mainchain_withdrawal.t, string) result

val encode_config : Sidechain_config.t -> string
val decode_config : string -> (Sidechain_config.t, string) result
