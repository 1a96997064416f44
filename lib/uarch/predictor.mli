(** Branch direction prediction.

    The paper's front end uses a perceptron predictor with a 64-bit global
    history and a 512-entry weight table (Table 4); a gshare predictor
    (4K two-bit counters, 12-bit global history) is provided for
    comparison, and a perfect predictor backs the Fig 1 limit study. Targets are assumed perfect (ideal BTB):
    only direction mispredictions cost cycles.

    A predictor allocates only its own kind's table. The perceptron's
    weights saturate at ±127, so each fits a byte. A row is 72 bytes:
    the bias as a signed byte at offset 0, then from offset 8 the 64
    history weights, weight [i] (for the branch [i] outcomes ago) at byte
    [7 + i], each stored as weight + 128 (1..255 for −127..127), so eight
    share one 64-bit word. The 512-row table takes 36 KB and fits a 48 KB
    L1 data cache beside the rest of the cycle loop's hot state. The
    global history is one 64-bit mask, bit [i − 1] set when the branch
    [i] outcomes ago was taken. A step reads a row a word at a time:
    each 8-bit slice of the mask selects its word's bytes through a
    256-entry expansion table, the votes add in 16-bit lanes that one
    multiply folds, and training adds or subtracts 1 in every lane at
    once, holding lanes at the clamp so no carry crosses a lane. A step
    allocates nothing, and its predictions and weights are those of the
    one-weight-at-a-time perceptron. *)

type t

val create : Config.t -> t

val predict_and_train : t -> pc:int -> taken:bool -> bool
(** Returns whether the prediction matched the actual outcome, and trains
    the predictor. Perfect predictors always match. *)

val warm : t -> pc:int -> taken:bool -> unit
(** Trains on a branch outcome without touching lookup/mispredict
    statistics (sampled-simulation warm-up replay). *)

val weights : t -> int array
(** The perceptron's weights, row by row, each row's bias first: a copy,
    for tests. Empty for the other kinds. *)

val lookups : t -> int
val mispredicts : t -> int

val accuracy : t -> float
(** 1.0 when no lookups have happened. *)
