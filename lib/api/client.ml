(* Blocking client for the braidsim serve protocol. One request in flight
   per connection: [request] writes the frame, relays progress frames to
   the callback, and returns the terminal frame. *)

type t = { ic : in_channel; oc : out_channel }

let connect addr =
  match Addr.connect addr with
  | Error e -> Error e
  | Ok fd ->
      Ok { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Both channels share one descriptor: close it exactly once (through [oc],
   which flushes first). A second close could hit a descriptor number
   another thread has reused in the meantime. *)
let close t = close_out_noerr t.oc

let request ?on_progress t req =
  match Wire.write t.oc (Request.to_json req) with
  | exception Sys_error e -> Error (Printf.sprintf "connection lost: %s" e)
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "connection lost: %s" (Unix.error_message err))
  | () ->
      let rec wait () =
        match Wire.read t.ic with
        | Error err -> Error (Wire.error_to_string err)
        | Ok payload -> (
            match Response.of_json payload with
            | Error e -> Error (Printf.sprintf "malformed response: %s" e)
            | Ok (Response.Progress { completed; total; label; _ }) ->
                Option.iter
                  (fun f -> f ~completed ~total ~label)
                  on_progress;
                wait ()
            | Ok (Response.Done { payload; _ }) -> Ok payload
            | Ok (Response.Failed { message; _ }) -> Error message)
      in
      wait ()
