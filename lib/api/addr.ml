(* Server endpoints: a Unix-domain socket path (the default — private to
   the user, no port bookkeeping) or a TCP host:port for remote use. *)

type t = Unix_sock of string | Tcp of string * int

let to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let of_spec spec =
  (* host:port when the suffix parses as a port; otherwise a socket path.
     Paths with colons are rare enough that an explicit ./ prefix (which
     never parses as host:port thanks to the non-numeric suffix check
     below failing only on all-digit suffixes) covers them. *)
  match String.rindex_opt spec ':' with
  | Some i when i > 0 && i < String.length spec - 1 -> (
      let suffix = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt suffix with
      | Some port when port > 0 && port < 65536 ->
          Ok (Tcp (String.sub spec 0 i, port))
      | Some port -> Error (Printf.sprintf "port %d out of range" port)
      | None -> Ok (Unix_sock spec))
  | _ -> Ok (Unix_sock spec)

let resolve host port =
  match Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> Error (Printf.sprintf "cannot resolve %s:%d" host port)
  | ai :: _ -> Ok ai.Unix.ai_addr

let sockaddr = function
  | Unix_sock path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> resolve host port

let backlog = 16

let listen t =
  match sockaddr t with
  | Error e -> Error e
  | Ok sa -> (
      (match t with
      | Unix_sock path when Sys.file_exists path ->
          (* A stale socket from an unclean exit; binding over it needs the
             name free. A live daemon would still hold it open — probing
             with connect is racy either way, so favour restartability. *)
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> ());
      let domain = Unix.domain_of_sockaddr sa in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      try
        if domain <> Unix.PF_UNIX then
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sa;
        Unix.listen fd backlog;
        Ok fd
      with Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s: %s" (to_string t)
             (Unix.error_message err)))

let connect t =
  match sockaddr t with
  | Error e -> Error e
  | Ok sa -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd sa;
        Ok fd
      with Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" (to_string t)
             (Unix.error_message err)))

let cleanup = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
