(** Integer-valued histogram with unbounded support.

    Used for the value fanout and lifetime characterisations (§1.1 of the
    paper). *)

type t

val create : unit -> t
val add : t -> int -> unit
(** [add t v] counts one observation of value [v] (must be >= 0). *)

val add_many : t -> int -> int -> unit
(** [add_many t v n] counts [n] observations of [v]. *)

val count : t -> int
(** Total number of observations. *)

val count_eq : t -> int -> int
(** Observations exactly equal to [v]. *)

val count_le : t -> int -> int
(** Observations less than or equal to [v]. *)

val fraction_eq : t -> int -> float
(** [count_eq] over [count]; 0. when empty. *)

val fraction_le : t -> int -> float
(** [count_le] over [count]; 0. when empty. *)
