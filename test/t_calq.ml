(* Tests for the timing model's hot-path data structures: the calendar
   queue (Braid_util.Calq), the paged sparse memory (Braid_util.Paged_mem)
   and the per-cycle resource counters (Braid_uarch.Machine.Rc). *)

module Calq = Braid_util.Calq
module Paged_mem = Braid_util.Paged_mem
module Rc = Braid_uarch.Machine.Rc

(* --- Calq --------------------------------------------------------------- *)

let drain_list q cycle = List.init (Calq.take q cycle) (Calq.taken q)

let test_calq_insertion_order () =
  let q = Calq.create ~horizon:16 in
  Calq.add q 3 10;
  Calq.add q 3 11;
  Calq.add q 3 12;
  Calq.add q 5 99;
  Alcotest.(check int) "length" 4 (Calq.length q);
  Alcotest.(check (list int)) "cycle 3 in order" [ 10; 11; 12 ] (drain_list q 3);
  Alcotest.(check (list int)) "cycle 4 empty" [] (drain_list q 4);
  Alcotest.(check (list int)) "cycle 5" [ 99 ] (drain_list q 5);
  Alcotest.(check bool) "empty" true (Calq.is_empty q);
  (* more events than a slot holds in line spill, in order, twice *)
  List.iter
    (fun c ->
      let vs = List.init 40 (fun v -> (100 * c) + v) in
      List.iter (Calq.add q c) vs;
      Alcotest.(check (list int)) "spilled cycle in order" vs (drain_list q c))
    [ 7; 7 + Calq.horizon q ]

let test_calq_horizon_wrap_grows () =
  (* wheel of 4 slots: cycles 1 and 5 collide (5 mod 4 = 1); with both
     live the wheel must double rather than merge or drop either *)
  let q = Calq.create ~horizon:4 in
  Alcotest.(check int) "initial wheel" 4 (Calq.horizon q);
  let spilled = List.init 20 Fun.id in
  List.iter (Calq.add q 1) spilled;
  Calq.add q 5 500;
  Alcotest.(check bool) "wheel grew" true (Calq.horizon q >= 8);
  Alcotest.(check (list int)) "cycle 1 intact" spilled (drain_list q 1);
  Alcotest.(check (list int)) "cycle 5 intact" [ 500 ] (drain_list q 5)

(* [take] releases the slot before its events are read: a handler that
   schedules into the same slot (a later cycle of the same wheel
   position) while the loop runs leaves the taken events as they were. *)
let test_calq_take_survives_adds () =
  let q = Calq.create ~horizon:4 in
  List.iter (Calq.add q 1) [ 10; 11; 12 ];
  let n = Calq.take q 1 in
  let seen =
    List.init n (fun j ->
        Calq.add q (5 + (4 * j)) (100 + j);
        Calq.taken q j)
  in
  Alcotest.(check (list int)) "taken events intact" [ 10; 11; 12 ] seen;
  Alcotest.(check (list int)) "the re-added event" [ 100 ] (drain_list q 5);
  Alcotest.(check int) "two still scheduled" 2 (Calq.length q)

let test_calq_drain_exact_cycle_only () =
  (* events do not leak across a wrap: 2 and 2 + wheel size share a slot
     once drained buckets are reused, but a drain at the wrong cycle must
     see nothing *)
  let q = Calq.create ~horizon:4 in
  Calq.add q 2 7;
  Alcotest.(check (list int)) "cycle 2" [ 7 ] (drain_list q 2);
  Calq.add q 6 8;
  Alcotest.(check (list int)) "cycle 2 again: nothing" [] (drain_list q 2);
  Alcotest.(check (list int)) "cycle 6" [ 8 ] (drain_list q 6)

let test_calq_clear () =
  let q = Calq.create ~horizon:8 in
  Calq.add q 1 1;
  Calq.add q 2 2;
  Calq.clear q;
  Alcotest.(check bool) "cleared" true (Calq.is_empty q);
  Alcotest.(check (list int)) "nothing at 1" [] (drain_list q 1);
  Alcotest.(check (list int)) "nothing at 2" [] (drain_list q 2)

let test_calq_invalid () =
  Alcotest.check_raises "zero horizon"
    (Invalid_argument "Calq.create: horizon must be positive") (fun () ->
      ignore (Calq.create ~horizon:0));
  let q = Calq.create ~horizon:4 in
  Alcotest.check_raises "negative cycle"
    (Invalid_argument "Calq.add: negative cycle") (fun () -> Calq.add q (-1) 0)

(* --- Paged_mem ---------------------------------------------------------- *)

let test_paged_default_zero () =
  let m = Paged_mem.create () in
  Alcotest.(check int64) "unwritten" 0L (Paged_mem.load m 4096);
  Alcotest.(check int) "loads do not materialise" 0 (Paged_mem.pages m)

let test_paged_page_boundary () =
  (* 4088 and 4096 are adjacent words in different 4 KiB pages *)
  let m = Paged_mem.create () in
  Paged_mem.store m 4088 1L;
  Paged_mem.store m 4096 2L;
  Alcotest.(check int) "two pages" 2 (Paged_mem.pages m);
  Alcotest.(check int64) "last word of page 0" 1L (Paged_mem.load m 4088);
  Alcotest.(check int64) "first word of page 1" 2L (Paged_mem.load m 4096)

let test_paged_sparse () =
  let m = Paged_mem.create () in
  let far = 1 lsl 40 in
  Paged_mem.store m 0 10L;
  Paged_mem.store m far 20L;
  Alcotest.(check int64) "near" 10L (Paged_mem.load m 0);
  Alcotest.(check int64) "far" 20L (Paged_mem.load m far);
  Alcotest.(check int) "only touched pages exist" 2 (Paged_mem.pages m);
  let sum =
    Paged_mem.fold_nonzero (fun acc _ v -> Int64.add acc v) 0L m
  in
  Alcotest.(check int64) "fold_nonzero sees both" 30L sum

let test_paged_overwrite_and_zero () =
  let m = Paged_mem.create () in
  Paged_mem.store m 64 5L;
  Paged_mem.store m 64 0L;
  let count = Paged_mem.fold_nonzero (fun acc _ _ -> acc + 1) 0 m in
  Alcotest.(check int) "zeroed word not iterated" 0 count;
  Alcotest.(check int64) "reads back zero" 0L (Paged_mem.load m 64)

(* Snapshot/restore is what lets the sampled driver rewind the compiled
   emulator to an earlier window without replaying from the start. *)
let test_paged_snapshot_restore () =
  let m = Paged_mem.create () in
  Paged_mem.store m 0 1L;
  Paged_mem.store m 4096 2L;
  Paged_mem.store m (1 lsl 30) 3L;
  let snap = Paged_mem.snapshot m in
  (* mutate every captured page, zero one word, and touch a new page *)
  Paged_mem.store m 0 99L;
  Paged_mem.store m 4096 0L;
  Paged_mem.store m 8192 4L;
  Paged_mem.restore m snap;
  Alcotest.(check int64) "first page restored" 1L (Paged_mem.load m 0);
  Alcotest.(check int64) "second page restored" 2L (Paged_mem.load m 4096);
  Alcotest.(check int64) "sparse page restored" 3L (Paged_mem.load m (1 lsl 30));
  Alcotest.(check int64) "page created after capture reads zero" 0L
    (Paged_mem.load m 8192)

let test_paged_snapshot_isolated () =
  let m = Paged_mem.create () in
  Paged_mem.store m 64 5L;
  let snap = Paged_mem.snapshot m in
  (* stores to the source after capture must not leak into the snapshot *)
  Paged_mem.store m 64 6L;
  let fresh = Paged_mem.of_snapshot snap in
  Alcotest.(check int64) "snapshot kept the captured value" 5L
    (Paged_mem.load fresh 64);
  (* ... nor stores after a restore *)
  Paged_mem.restore m snap;
  Paged_mem.store m 64 7L;
  let again = Paged_mem.of_snapshot snap in
  Alcotest.(check int64) "snapshot unaffected by post-restore stores" 5L
    (Paged_mem.load again 64);
  (* and two memories restored from one snapshot do not alias *)
  Paged_mem.store fresh 64 8L;
  Alcotest.(check int64) "of_snapshot copies are independent" 7L
    (Paged_mem.load m 64)

let test_paged_invalid_addr () =
  let m = Paged_mem.create () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Paged_mem: unaligned address") (fun () ->
      ignore (Paged_mem.load m 13));
  Alcotest.check_raises "negative"
    (Invalid_argument "Paged_mem: negative address") (fun () ->
      Paged_mem.store m (-8) 1L)

(* --- Machine.Rc --------------------------------------------------------- *)

let test_rc_take_first_free () =
  let rc = Rc.create 2 in
  Alcotest.(check int) "lands on requested cycle" 5 (Rc.take_first_free rc 5 2);
  Alcotest.(check int) "cycle 5 now full, slides to 6" 6
    (Rc.take_first_free rc 5 1);
  Alcotest.(check int) "shares cycle 6" 6 (Rc.take_first_free rc 6 1);
  Alcotest.(check int) "cycle 6 full too" 7 (Rc.take_first_free rc 6 1)

let test_rc_take_first_free_impossible () =
  let rc = Rc.create 2 in
  Alcotest.check_raises "request exceeds limit"
    (Invalid_argument "Rc.take_first_free: request 3 exceeds limit 2")
    (fun () -> ignore (Rc.take_first_free rc 0 3))

let test_rc_reclaims_past_cycles () =
  let rc = Rc.create 1 in
  Rc.take rc 0 1;
  Alcotest.(check bool) "cycle 0 full" false (Rc.available rc 0 1);
  Rc.set_now rc 1;
  (* a full window of fresh reservations forces reuse of slot 0's line *)
  Alcotest.(check bool) "future cycle free" true (Rc.available rc 1024 1);
  Rc.take rc 1024 1;
  Alcotest.(check int) "stale slot reclaimed for new cycle" 1
    (Rc.used rc 1024)

let suite =
  ( "perf-structs",
    [
      Alcotest.test_case "calq insertion order" `Quick test_calq_insertion_order;
      Alcotest.test_case "calq horizon wrap grows" `Quick
        test_calq_horizon_wrap_grows;
      Alcotest.test_case "calq take survives adds into its slot" `Quick
        test_calq_take_survives_adds;
      Alcotest.test_case "calq drains exact cycle only" `Quick
        test_calq_drain_exact_cycle_only;
      Alcotest.test_case "calq clear" `Quick test_calq_clear;
      Alcotest.test_case "calq invalid args" `Quick test_calq_invalid;
      Alcotest.test_case "paged default zero" `Quick test_paged_default_zero;
      Alcotest.test_case "paged page boundary" `Quick test_paged_page_boundary;
      Alcotest.test_case "paged sparse addresses" `Quick test_paged_sparse;
      Alcotest.test_case "paged overwrite to zero" `Quick
        test_paged_overwrite_and_zero;
      Alcotest.test_case "paged snapshot restore" `Quick
        test_paged_snapshot_restore;
      Alcotest.test_case "paged snapshot isolation" `Quick
        test_paged_snapshot_isolated;
      Alcotest.test_case "paged invalid addresses" `Quick
        test_paged_invalid_addr;
      Alcotest.test_case "rc take_first_free" `Quick test_rc_take_first_free;
      Alcotest.test_case "rc take_first_free impossible" `Quick
        test_rc_take_first_free_impossible;
      Alcotest.test_case "rc reclaims past cycles" `Quick
        test_rc_reclaims_past_cycles;
    ] )
