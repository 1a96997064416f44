(* A `braidsim serve` daemon owned by the benchmark: launched as a child
   process on a Unix socket inside the work directory, and always shut
   down and reaped before the benchmark exits. *)

module Api = Braid_api

type t = { pid : int; addr : Api.Addr.t }

let live : int list ref = ref []

(* Anything still running when the benchmark exits (an exception, a failed
   check) is killed and reaped, so no daemon outlives the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

(* Launch a daemon and wait for its first status reply. Returns the
   daemon, a connected client, and the seconds from launch to that
   reply. *)
let launch ~braidsim ~socket ~log =
  let addr = Api.Addr.Unix_sock socket in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process braidsim
      [| braidsim; "serve"; "--socket"; socket; "--jobs"; "1" |]
      Unix.stdin out out
  in
  Unix.close out;
  live := pid :: !live;
  let deadline = t0 +. 30.0 in
  let rec wait () =
    let retry why =
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          live := List.filter (( <> ) pid) !live;
          failwith (Printf.sprintf "braidsim serve exited before answering (see %s)" log));
      if Unix.gettimeofday () > deadline then
        failwith ("braidsim serve did not answer status within 30 s: " ^ why);
      Thread.delay 0.002;
      wait ()
    in
    match Api.Client.connect addr with
    | Error e -> retry e
    | Ok c -> (
        match Api.Client.request c Api.Request.Status with
        | Ok (Api.Response.Status_report _) -> c
        | Ok _ -> failwith "braidsim serve answered status with another payload"
        | Error e ->
            Api.Client.close c;
            retry e)
  in
  let client = wait () in
  ({ pid; addr }, client, Unix.gettimeofday () -. t0)

(* Peak resident set of the daemon so far, in MB (Linux /proc). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:0.0

(* Graceful shutdown through the protocol; a daemon that has not exited
   10 s later is killed. Reaped either way. *)
let shutdown t client =
  ignore (Api.Client.request client Api.Request.Shutdown);
  Api.Client.close client;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t.pid
    | _ -> live := List.filter (( <> ) t.pid) !live
  in
  wait ()
