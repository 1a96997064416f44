(* Tests for Braid_util.Ring (bounded int FIFO). *)

let contents r = List.init (Ring.length r) (Ring.get r)

let test_fifo_order () =
  let r = Ring.create ~capacity:4 in
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
  let r = Ring.create ~capacity:2 in
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.check_raises "push full" (Failure "Ring.push: full") (fun () ->
      Ring.push r 3);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0))

let test_empty_errors () =
  let r = Ring.create ~capacity:2 in
  Alcotest.check_raises "pop empty" (Failure "Ring.pop: empty") (fun () ->
      ignore (Ring.pop r));
  Alcotest.check_raises "peek empty" (Failure "Ring.peek: empty") (fun () ->
      ignore (Ring.peek r))

let test_get_and_peek () =
  let r = Ring.create ~capacity:8 in
  List.iter (Ring.push r) [ 10; 20; 30 ];
  Alcotest.(check int) "peek" 10 (Ring.peek r);
  Alcotest.(check int) "get 0" 10 (Ring.get r 0);
  Alcotest.(check int) "get 2" 30 (Ring.get r 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Ring.get: index out of range")
    (fun () -> ignore (Ring.get r 3))

let test_remove_at () =
  let r = Ring.create ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "remove near the head" 2 (Ring.remove_at r 1);
  Alcotest.(check (list int)) "order kept" [ 1; 3; 4; 5 ] (contents r);
  Alcotest.(check int) "remove near the tail" 4 (Ring.remove_at r 2);
  Alcotest.(check (list int)) "order kept" [ 1; 3; 5 ] (contents r);
  Alcotest.(check int) "remove head" 1 (Ring.remove_at r 0);
  Alcotest.(check (list int)) "remaining" [ 3; 5 ] (contents r);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Ring.remove_at: index out of range") (fun () ->
      ignore (Ring.remove_at r 2))

let test_wraparound () =
  let r = Ring.create ~capacity:3 in
  (* cycle through to force head wrap *)
  for i = 1 to 10 do
    Ring.push r i;
    Alcotest.(check int) "fifo through wrap" i (Ring.pop r)
  done;
  List.iter (Ring.push r) [ 100; 200 ];
  Alcotest.(check (list int)) "wrapped contents" [ 100; 200 ] (contents r)

let test_get_walk () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 0; 0; 1 ];
  ignore (Ring.pop r);
  ignore (Ring.pop r);
  List.iter (Ring.push r) [ 2; 3 ];
  (* the head sits at slot 2 and the tail has wrapped to slot 0 *)
  Alcotest.(check (list int)) "get walks head to tail" [ 1; 2; 3 ] (contents r);
  Alcotest.(check int) "length" 3 (Ring.length r)

let test_drained_reuse () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2 ];
  ignore (Ring.remove_at r 1);
  ignore (Ring.pop r);
  Alcotest.(check bool) "drained" true (Ring.is_empty r);
  List.iter (Ring.push r) [ 7; 8; 9; 10 ];
  Alcotest.(check bool) "full again" true (Ring.is_full r);
  Alcotest.(check int) "usable after draining" 7 (Ring.pop r)

(* Model-based: a ring behaves like a bounded list queue. Every
   operation, on rings of capacity 1-8, so the head wraps and [remove_at]
   closes gaps from both sides. An operation the model refuses (push when
   full, pop/get/remove_at out of range) must raise. *)
let qcheck_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun n -> `Push n) small_int);
          (2, return `Pop);
          (2, map (fun i -> `Get i) (int_bound 8));
          (3, map (fun i -> `Remove i) (int_bound 8));
        ])
  in
  let gen = QCheck.Gen.(pair (int_range 1 8) (list_size (int_bound 60) op)) in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap
      (String.concat "; "
         (List.map
            (function
              | `Push n -> Printf.sprintf "push %d" n
              | `Pop -> "pop"
              | `Get i -> Printf.sprintf "get %d" i
              | `Remove i -> Printf.sprintf "remove_at %d" i)
            ops))
  in
  QCheck.Test.make ~name:"ring matches list-queue model" ~count:500
    (QCheck.make ~print gen) (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let model = ref [] in
      let raises f = match f () with _ -> false | exception _ -> true in
      let step = function
        | `Push n ->
            if List.length !model < cap then begin
              Ring.push r n;
              model := !model @ [ n ];
              true
            end
            else raises (fun () -> Ring.push r n)
        | `Pop -> (
            match !model with
            | [] -> raises (fun () -> Ring.pop r)
            | x :: rest ->
                model := rest;
                Ring.pop r = x)
        | `Get i ->
            if i < List.length !model then Ring.get r i = List.nth !model i
            else raises (fun () -> Ring.get r i)
        | `Remove i ->
            if i < List.length !model then begin
              let x = List.nth !model i in
              model := List.filteri (fun j _ -> j <> i) !model;
              Ring.remove_at r i = x
            end
            else raises (fun () -> Ring.remove_at r i)
      in
      List.for_all
        (fun o ->
          step o
          && contents r = !model
          && Ring.is_empty r = (!model = [])
          && Ring.is_full r = (List.length !model = cap))
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
      Alcotest.test_case "get walks head to tail" `Quick test_get_walk;
      Alcotest.test_case "reusable after draining" `Quick test_drained_reuse;
      QCheck_alcotest.to_alcotest qcheck_model;
    ] )
