(* Host-speed calibration.

   On a shared 2-vCPU container the CPUs change speed by up to 1.5x in
   spells that last tens of seconds (other tenants on the same cores),
   longer than one run. So every time the benchmark reports is scaled to
   a reference host speed: between requests it times a fixed kernel of
   ordinary OCaml work (a dependent walk over a 16 MB table, hashing,
   sorting, list building: memory and cache traffic like the
   simulator's), and each request's time is multiplied by [reference] /
   the mean of the samples taken just before and just after it (serve:
   taken between connection A's requests while both connections are
   quiet). Over 184 sweep requests the whole kernel's time followed the
   simulator's (correlation 0.77) more closely than any one of its parts
   (0.47 to 0.67).

   The kernel runs in a helper process with its own heap, so the
   simulator's garbage never changes how long the kernel takes; only the
   host's speed does. The kernel is fixed: the benchmark, not the code
   under test, owns it. *)

let reference = 0.015  (* seconds: a sample's time on the reference host *)

(* i -> i * odd mod 2^21: a permutation whose walk from 1 jumps across the
   whole table *)
let walk = lazy (Array.init (1 lsl 21) (fun i -> (i * 0x9E3779B1) land ((1 lsl 21) - 1)))

let kernel () =
  let t = Lazy.force walk in
  let j = ref 1 in
  for _ = 1 to 60_000 do
    j := t.(!j)
  done;
  let h = Hashtbl.create 16 in
  let x = ref 88172645463325252 in
  for i = 1 to 12_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    Hashtbl.replace h (!x land 0xFFFFF) i
  done;
  let a = Array.init 12_000 (fun i -> (i * 7919) land 0xFFFF) in
  Array.sort compare a;
  let l = List.init 12_000 (fun i -> (i, string_of_int i)) in
  ignore (Sys.opaque_identity (!j, List.rev_map fst l, Hashtbl.length h, a))

let timed () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

(* The helper: per input line, the fastest of three kernel runs (one run
   alone varied by 10% from one sample to the next). The first run in a
   fresh process is slow; it is not a sample. *)
let serve () =
  ignore (timed ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (List.fold_left Float.min infinity (List.init 3 (fun _ -> timed ())))
    done
  with End_of_file -> ()

type t = {
  to_helper : out_channel;
  from_helper : in_channel;
  pid : int;
  mutable samples : (float * float) list;  (** when taken, kernel time; newest first *)
  mutable last : float;  (** when the last sample was taken *)
}

let start ~exe =
  let r1, w1 = Unix.pipe ~cloexec:true () and r2, w2 = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--calibrator" |] r1 w2 Unix.stderr in
  Unix.close r1;
  Unix.close w2;
  {
    to_helper = Unix.out_channel_of_descr w1;
    from_helper = Unix.in_channel_of_descr r2;
    pid;
    samples = [];
    last = neg_infinity;
  }

let stop t =
  close_out_noerr t.to_helper;
  close_in_noerr t.from_helper;
  ignore (Unix.waitpid [] t.pid)

let sample t =
  output_string t.to_helper "\n";
  flush t.to_helper;
  let c = float_of_string (input_line t.from_helper) in
  t.last <- Unix.gettimeofday ();
  t.samples <- (t.last, c) :: t.samples

(* A sample is due once a quarter second has passed since the last one,
   so a run samples evenly in time whatever its request length. *)
let due t = Unix.gettimeofday () -. t.last >= 0.25

(* Called between requests only. *)
let tick t = if due t then sample t

(* The simulator slows more than the kernel in the same spell: the slope
   of log request time on log sample time was 1.44 over 184 sweep
   requests, and recomputed over 80 runs of the four workloads, raising
   the scale to 1.5 to 1.75 left the least run-to-run spread. The scale depends on the
   kernel's time alone, so a change to the simulator still moves the
   scaled figures exactly as it moves the raw ones. *)
let exponent = 1.5

let scale_of c = (reference /. c) ** exponent

(* Multiply the time of a request that ran from [t0] to [t1] by this: the
   scale of the mean of the samples just before and just after it, or of
   either alone at the ends of a run. Bracketing the request followed the
   simulator's speed more closely than the sample before it alone. *)
let scale_over t ~t0 ~t1 =
  let before = List.find_opt (fun (at, _) -> at <= t0) t.samples in
  let after = List.fold_left (fun acc (at, c) -> if at >= t1 then Some c else acc) None t.samples in
  match (Option.map snd before, after) with
  | Some a, Some b -> scale_of ((a +. b) /. 2.0)
  | Some c, None | None, Some c -> scale_of c
  | None, None -> 1.0

(* The median sample's scale. *)
let scale t =
  match List.sort compare (List.map snd t.samples) with
  | [] -> 1.0
  | s -> scale_of (List.nth s (List.length s / 2))
