(* Tests for Braid_util.Ring (bounded FIFO). *)

let test_fifo_order () =
  let r = Ring.create ~dummy:0 ~capacity:4 in
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check int) "pop 1" 1 (Ring.pop r);
  Alcotest.(check int) "pop 2" 2 (Ring.pop r);
  Ring.push r 4;
  Alcotest.(check int) "pop 3" 3 (Ring.pop r);
  Alcotest.(check int) "pop 4" 4 (Ring.pop r);
  Alcotest.(check bool) "empty" true (Ring.is_empty r)

let test_capacity () =
  let r = Ring.create ~dummy:0 ~capacity:2 in
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.check_raises "push full" (Failure "Ring.push: full") (fun () ->
      Ring.push r 3)

let test_empty_errors () =
  let r : int Ring.t = Ring.create ~dummy:0 ~capacity:2 in
  Alcotest.check_raises "pop empty" (Failure "Ring.pop: empty") (fun () ->
      ignore (Ring.pop r));
  Alcotest.check_raises "peek empty" (Failure "Ring.peek: empty") (fun () ->
      ignore (Ring.peek r))

let test_get_and_peek () =
  let r = Ring.create ~dummy:0 ~capacity:8 in
  List.iter (Ring.push r) [ 10; 20; 30 ];
  Alcotest.(check int) "peek" 10 (Ring.peek r);
  Alcotest.(check int) "get 0" 10 (Ring.get r 0);
  Alcotest.(check int) "get 2" 30 (Ring.get r 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Ring.get: index out of range")
    (fun () -> ignore (Ring.get r 3))

let test_remove_at () =
  let r = Ring.create ~dummy:0 ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "remove middle" 2 (Ring.remove_at r 1);
  Alcotest.(check (list int)) "remaining order" [ 1; 3; 4 ] (Ring.to_list r);
  Alcotest.(check int) "remove head" 1 (Ring.remove_at r 0);
  Alcotest.(check (list int)) "remaining" [ 3; 4 ] (Ring.to_list r)

let test_wraparound () =
  let r = Ring.create ~dummy:0 ~capacity:3 in
  (* cycle through to force head wrap *)
  for i = 1 to 10 do
    Ring.push r i;
    Alcotest.(check int) "fifo through wrap" i (Ring.pop r)
  done;
  List.iter (Ring.push r) [ 100; 200 ];
  Alcotest.(check (list int)) "wrapped contents" [ 100; 200 ] (Ring.to_list r)

let test_iter_fold () =
  let r = Ring.create ~dummy:0 ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check int) "fold sum" 6 (Ring.fold ( + ) 0 r);
  let acc = ref [] in
  Ring.iteri (fun i x -> acc := (i, x) :: !acc) r;
  Alcotest.(check (list (pair int int))) "iteri order" [ (0, 1); (1, 2); (2, 3) ]
    (List.rev !acc);
  Alcotest.(check bool) "exists" true (Ring.exists (fun x -> x = 2) r);
  Alcotest.(check bool) "not exists" false (Ring.exists (fun x -> x = 9) r)

let test_clear () =
  let r = Ring.create ~dummy:0 ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2 ];
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r);
  Ring.push r 7;
  Alcotest.(check int) "usable after clear" 7 (Ring.pop r)

(* Model-based: a ring behaves like a bounded list queue. *)
let qcheck_model =
  let ops =
    QCheck.(small_list (oneof [ Gen.map (fun n -> `Push n) Gen.small_int |> make; Gen.return `Pop |> make ]))
  in
  QCheck.Test.make ~name:"ring matches list-queue model" ~count:300 ops (fun ops ->
      let r = Ring.create ~dummy:0 ~capacity:8 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | `Push n ->
              if List.length !model < 8 then begin
                Ring.push r n;
                model := !model @ [ n ];
                Ring.to_list r = !model
              end
              else true
          | `Pop -> (
              match !model with
              | [] -> Ring.is_empty r
              | x :: rest ->
                  let y = Ring.pop r in
                  model := rest;
                  x = y && Ring.to_list r = !model))
        ops)

let suite =
  ( "ring-bitvec",
    [
      Alcotest.test_case "fifo order" `Quick test_fifo_order;
      Alcotest.test_case "capacity" `Quick test_capacity;
      Alcotest.test_case "empty errors" `Quick test_empty_errors;
      Alcotest.test_case "get and peek" `Quick test_get_and_peek;
      Alcotest.test_case "remove_at" `Quick test_remove_at;
      Alcotest.test_case "wraparound" `Quick test_wraparound;
      Alcotest.test_case "iter fold" `Quick test_iter_fold;
      Alcotest.test_case "clear" `Quick test_clear;
      QCheck_alcotest.to_alcotest qcheck_model;
    ] )
