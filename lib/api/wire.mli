(** Length-prefixed framing for the [braidsim serve] socket protocol: each
    frame is a 4-byte big-endian payload length followed by that many
    payload bytes (one JSON document). Both directions of the protocol use
    the same framing. *)

val max_frame : int
(** Hard cap on a payload (64 MiB): a header naming more is rejected
    without allocating. *)

type error =
  | Closed  (** clean EOF on a frame boundary *)
  | Truncated of string  (** EOF mid-header or mid-payload *)
  | Oversized of int  (** header names a length beyond {!max_frame} *)

val error_to_string : error -> string

val encode : string -> string
(** Header plus payload, ready to write. Raises [Invalid_argument] past
    {!max_frame}. *)

val write : out_channel -> string -> unit
(** [encode] written and flushed. *)

val read : in_channel -> (string, error) result
(** Block until one whole frame (or EOF) arrives. *)
