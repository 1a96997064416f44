(** Rendering of typed experiment results: plain-text tables/charts for the
    terminal, and a machine-readable JSON serialization for diffing bench
    trajectories across PRs.

    This is the only layer that turns {!Experiments.result} floats into
    strings — the experiments themselves carry data, not text. *)

val render : Experiments.result -> string
(** Tables (with int/fp/overall average rows and an average bar chart where
    the series asks for them) followed by the result's notes. *)

val render_full : Experiments.result -> string
(** [render] preceded by the framed header (id, title, paper expectation)
    the bench harness prints for each experiment. *)

val headline_summary : Experiments.result list -> string
(** The framed "Headline summary (measured)" block: one line of
    [label=value] metrics per experiment. *)

val render_counter_value : Braid_uarch.Core.counter -> string
(** One counter's value as the text dumps print it: the count, or a
    histogram's observation count / sum / bucket vector. *)

val render_counters : Experiments.counters -> string
(** Framed per-benchmark dump of an observability counters report
    ({!Experiments.counters_report}): one line per counter, histograms as
    observation count / sum / bucket vector. *)

val to_json :
  ?counters:Experiments.counters ->
  scale:int ->
  jobs:int ->
  (Experiments.result * Runner.stats option) list ->
  string
(** Serialize a batch of results (with optional per-job telemetry) as one
    JSON document: experiment id, series with per-benchmark rows and
    columns, headline metrics, notes, and per-job wall-clock. When
    [counters] is given the document gains a top-level ["counters"]
    object (benchmark → counter name → value); without it the output is
    byte-for-byte what it was before observability existed. *)

val write_json :
  ?counters:Experiments.counters ->
  file:string ->
  scale:int ->
  jobs:int ->
  (Experiments.result * Runner.stats option) list ->
  unit
(** [to_json] written to [file]; ["-"] writes to stdout.

    All serialization goes through the shared {!Braid_util.Json}
    emitters ([escape_string] / [float_lit] / [list_lit] / [obj_lit]);
    this module holds no JSON implementation of its own. *)
