(** The tree's one JSON implementation: a minimal self-contained parser
    and printer, plus the string-level emitters the experiment and sweep
    documents are written with. Everything that reads or writes
    JSON — the Chrome exporter, the experiment reports, the DSE cache,
    the [braidsim serve] wire protocol, the test suite and the CI smoke
    checks — goes through this module; there is no external JSON
    dependency and no second implementation. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict: the whole input must be one JSON value (plus whitespace).
    The error mentions the byte offset. *)

val parse_exn : string -> t
(** Raises [Failure] with the parse error. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere. *)

val to_string : t -> string
(** Serializer (compact); [parse (to_string v)] round-trips. NaN and
    infinities serialize as [null]. *)

val escape_string : string -> string
(** The quoted, escaped JSON form of a string literal. *)

(** {2 String-level emitters}

    The experiment and sweep documents are assembled as literal string
    fragments (integral floats print as ["1.0"], so trajectories diff
    cleanly) rather than through the tree. *)

val float_lit : float -> string
(** NaN/infinity become [null]; integral values print as [x.0]. *)

val list_lit : ('a -> string) -> 'a list -> string
val obj_lit : (string * string) list -> string

(** {2 Tree accessors} *)

val str_member : string -> t -> string option
(** [member] restricted to [Str]. *)

val int_member : string -> t -> int option
(** [member] restricted to integral [Num]s within exact-float range. *)
