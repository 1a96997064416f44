(* Length-prefixed framing: a 4-byte big-endian payload length followed by
   the payload bytes (UTF-8 JSON in this protocol). The length cap keeps a
   corrupt or hostile header from making the daemon allocate gigabytes. *)

let max_frame = 64 * 1024 * 1024

type error =
  | Closed  (** clean EOF on a frame boundary *)
  | Truncated of string  (** EOF mid-header or mid-payload *)
  | Oversized of int  (** header names a length beyond {!max_frame} *)

let error_to_string = function
  | Closed -> "connection closed"
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Oversized n -> Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n max_frame

let header_of_length n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.unsafe_to_string b

let length_of_header s =
  (Char.code s.[0] lsl 24)
  lor (Char.code s.[1] lsl 16)
  lor (Char.code s.[2] lsl 8)
  lor Char.code s.[3]

let encode payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire.encode: payload exceeds max_frame";
  header_of_length n ^ payload

(* --- channel IO (blocking) --- *)

let write oc payload =
  output_string oc (encode payload);
  flush oc

let really_read ic n =
  match really_input_string ic n with
  | s -> Some s
  | exception End_of_file -> None

let read ic =
  match input_char ic with
  | exception End_of_file -> Error Closed
  | c0 -> (
      match really_read ic 3 with
      | None -> Error (Truncated "header")
      | Some rest -> (
          let n = length_of_header (String.make 1 c0 ^ rest) in
          if n > max_frame then Error (Oversized n)
          else
            match really_read ic n with
            | None -> Error (Truncated "payload")
            | Some payload -> Ok payload))
