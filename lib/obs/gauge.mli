(** Last-write-wins gauges (point-in-time values: queue depths, sizes).

    Gauges are low-frequency, so one atomic cell is enough — no
    sharding. Disabled registry: one branch, no write. *)

type t

val make : string -> t
(** Idempotent by name, like {!Counter.make}. *)

val set_int : t -> int -> unit
val value : t -> float
val name : t -> string

val all : unit -> t list
(** Sorted by name. *)
