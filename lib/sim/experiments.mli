(** One experiment per table and figure of the paper's evaluation, plus the
    ablations DESIGN.md calls out. Each experiment produces a *typed* result
    — float-carrying rows, series and headline metrics — that downstream
    consumers (the {!Report} text renderer and JSON exporter) interpret;
    nothing here is pre-rendered text.

    An experiment decomposes into one pure job per benchmark
    ({!field:bench_job}) plus a cheap {!field:assemble} step that folds the
    per-benchmark payloads into the result's tables, notes and headline.
    {!Runner.run_experiments} fans the (experiment × benchmark) job matrix
    out across domains and gives each result its experiment's identity.
    Jobs are deterministic in [(ctx-independent inputs, scale)], so serial
    and parallel execution produce identical results.

    Most jobs are one method: each configuration's speedup over a base
    configuration, both run on the benchmark's preparation. A configuration
    variant carries no label of its own; {!Suite.run} memoises on content. *)

type row_class =
  | Int_row  (** an integer benchmark — aggregated into "int avg" *)
  | Fp_row  (** a floating-point benchmark — aggregated into "fp avg" *)
  | Config_row  (** a configuration / non-benchmark label; never averaged *)

type row = { label : string; cls : row_class; values : float list }
(** One table row: a benchmark (or configuration) and one float per
    column of the enclosing {!series}. *)

type series = {
  s_title : string;
  columns : string list;
  rows : row list;
  averages : bool;
      (** append int/fp/overall average rows (and an average bar chart)
          when rendering *)
  decimals : int;  (** numeric precision when rendered as text *)
}

type metric = { m_label : string; value : float }
(** A headline number, e.g. ("braid8/ooo8", 0.91). *)

type result = {
  id : string;  (** e.g. "fig13" *)
  title : string;
  paper_expectation : string;
      (** the claim from the paper this experiment checks, for
          EXPERIMENTS.md *)
  series : series list;  (** the tables/figures, in print order *)
  notes : string list;  (** prose annotations printed after the tables *)
  headline : metric list;  (** numbers for the summary table *)
}

type cells = (Braid_workload.Spec.profile * float array) list
(** Per-benchmark job payloads, in {!Braid_workload.Spec.all} order. *)

type t = {
  id : string;
  title : string;
  paper_expectation : string;
  bench_job : Suite.ctx -> Suite.prepared -> float array;
      (** the pure per-benchmark unit of work on one preparation of the
          benchmark ({!Runner.run_experiments} passes {!Suite.prepare}'s
          defaults at the run's scale): every simulation the experiment
          needs, reduced to a flat float payload. A job that needs
          another preparation (a register budget, a working-set bound,
          other seeds) makes it from the given one's [profile] and
          [scale]. *)
  assemble : cells -> series list * string list * metric list;
      (** folds all payloads (one per benchmark, in suite order) into the
          result's series, notes and headline; cheap, no simulation *)
}

val all : t list
(** Every experiment, in paper order: stats, tables 1–3, figs 1 and 5–14,
    and the ablations. Ids are unique. *)

val find : string -> t
(** Look an experiment up by id. Raises [Not_found] for unknown ids. *)

type counters = (string * (string * Braid_uarch.Core.counter) list) list
(** Per-benchmark counter dumps: [(benchmark name, dump)] in suite
    order. *)

val counters_report : Suite.ctx -> scale:int -> counters
(** Run every benchmark once on the 8-wide braid machine and read each
    run's counter dump ({!Braid_uarch.Core.counters}) — the Fig 6/Fig 7
    explanatory metrics (external-file early releases, bypass overflows,
    BEU occupancy, ...). *)
