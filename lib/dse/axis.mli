(** A typed sweep axis: one {!Braid_uarch.Config} field and the values it
    takes across the design space. Values are the canonical strings the
    {!Braid_uarch.Config.override} primitive parses, so an axis can
    address any sweepable field — integer widths, booleans, the predictor,
    even the core kind. *)

type t = private { field : string; values : string list }

val pseudo_fields : string list
(** Grid-level axes that are not {!Braid_uarch.Config} fields. Currently
    only ["cores"]: the CMP core count, carried on {!Grid.point} beside
    the per-core config (a Config field would change every digest). *)

val make : field:string -> string list -> (t, string) result
(** Rejects unknown fields (listing the sweepable ones plus
    {!pseudo_fields}), empty value lists and duplicate values. Value
    parseability is checked per grid point at expansion time
    ({!Grid.expand}). *)

val ints : field:string -> int list -> (t, string) result

val of_spec : string -> (t, string) result
(** Parses the CLI form ["ext_regs=4,8,16,32"]. *)

val to_spec : t -> string
(** Inverse of {!of_spec}. *)

val pp : Format.formatter -> t -> unit
