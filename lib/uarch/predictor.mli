(** Branch direction prediction.

    The paper's front end uses a perceptron predictor with a 64-bit global
    history and a 512-entry weight table (Table 4); a gshare predictor
    (4K two-bit counters, 12-bit global history) is provided for
    comparison, and a perfect predictor backs the Fig 1 limit study. Targets are assumed perfect (ideal BTB):
    only direction mispredictions cost cycles.

    A predictor allocates only its own kind's table. The perceptron's
    weights saturate at ±127, so each is kept as a signed byte: the
    512 × 65 table takes 33 KB, and fits a 48 KB L1 data cache beside
    the rest of the cycle loop's hot state. *)

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
