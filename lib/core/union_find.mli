(** Union-find over dense integer indices with path compression and union
    by rank — the engine behind braid identification (connected components
    of the in-block def-use graph). *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets, indexed [0 .. n-1]. *)

val find : t -> int -> int
(** Representative of the element's set (with path compression). *)

val union : t -> int -> int -> unit
(** Merges the two elements' sets. *)
