(** Fuzzing driver: generate, check, shrink, summarise.

    This is the library API behind [braidsim fuzz]; the test suite drives
    it directly. Each case is fully determined by [(seed, index)], so a
    failure printed as ["seed=S index=I"] reproduces with
    [run ~count:1 ~seed:S ()] after [generate ~seed:S ~index:I] — or from
    the CLI with [braidsim fuzz --seed S --index I --count 1]. *)

type failure = {
  case : Gen.case;
  report : Oracle.report;
  shrunk : (Gen.case * Oracle.report) option;
      (** present when shrinking was requested: the reduced case and the
          report the oracle produces on it *)
}

type outcome = { tested : int; failures : failure list }

val run :
  ?invariants:bool ->
  ?shrink:bool ->
  ?cores:Braid_uarch.Config.core_kind list ->
  ?first_index:int ->
  count:int ->
  seed:int ->
  unit ->
  outcome
(** Checks cases [first_index .. first_index + count - 1] (default from
    0) of stream [seed]. [invariants] defaults to [true]; [shrink]
    (default [false]) greedily reduces each failing case. [cores]
    defaults to every core kind, as in {!Oracle.check}. *)
