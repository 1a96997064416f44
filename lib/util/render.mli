(** Plain-text rendering of tables and bar charts.

    [braidsim experiment] reproduces each of the paper's tables and
    figures as text; this module owns the formatting so every experiment
    prints with a consistent look. *)

val table : header:string list -> rows:string list list -> string
(** Column-aligned table with a rule under the header. All rows must have
    the same arity as the header. *)

val bar_chart :
  title:string ->
  ?unit_label:string ->
  ?width:int ->
  (string * float) list ->
  string
(** Horizontal ASCII bar chart, one bar per (label, value). [width] is the
    length of the longest bar in characters (default 50). Values must be
    non-negative. *)

val float_cell : float -> string
(** Canonical numeric formatting used in tables (3 decimal places). *)

val pct : float -> string
(** [pct 0.912] is ["91.2%"]. *)
