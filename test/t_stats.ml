(* Tests for Braid_util.Histogram. *)

let feq = Alcotest.(check (float 1e-9))

let test_histogram_counts () =
  let h = Histogram.create () in
  Histogram.add h 1;
  Histogram.add h 1;
  Histogram.add h 3;
  Alcotest.(check int) "total" 3 (Histogram.count h);
  Alcotest.(check int) "eq 1" 2 (Histogram.count_eq h 1);
  Alcotest.(check int) "le 2" 2 (Histogram.count_le h 2);
  feq "fraction eq" (2.0 /. 3.0) (Histogram.fraction_eq h 1);
  feq "fraction le" 1.0 (Histogram.fraction_le h 3)

let test_histogram_add_many () =
  let h = Histogram.create () in
  Histogram.add_many h 2 5;
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "eq" 5 (Histogram.count_eq h 2)

let test_histogram_empty () =
  let h = Histogram.create () in
  feq "fraction of empty" 0.0 (Histogram.fraction_le h 10)

let qcheck_histogram_fraction =
  QCheck.Test.make ~name:"histogram fractions in [0,1] and monotone" ~count:300
    QCheck.(small_list (int_range 0 50))
    (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) vs;
      let f10 = Histogram.fraction_le h 10 and f20 = Histogram.fraction_le h 20 in
      f10 >= 0.0 && f10 <= 1.0 && f10 <= f20)

let suite =
  ( "stats",
    [
      Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
      Alcotest.test_case "histogram add_many" `Quick test_histogram_add_many;
      Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
      QCheck_alcotest.to_alcotest qcheck_histogram_fraction;
    ] )
