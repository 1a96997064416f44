(** Server endpoints: a Unix-domain socket path (the default) or a TCP
    [host:port]. One spec syntax serves both: a spec whose suffix parses as
    a port is TCP, anything else is a socket path. *)

type t = Unix_sock of string | Tcp of string * int

val to_string : t -> string

val of_spec : string -> (t, string) result
(** ["host:8437"] is TCP; ["/tmp/braidsim.sock"] (no port suffix) is a
    Unix socket. *)

val listen : t -> (Unix.file_descr, string) result
(** Bound, listening socket. A stale Unix-socket file is unlinked first so
    a daemon that died uncleanly can be restarted. *)

val connect : t -> (Unix.file_descr, string) result

val cleanup : t -> unit
(** Unlink a Unix-socket path; no-op for TCP. *)
