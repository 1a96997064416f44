(** Cmdliner vocabulary of the [braidsim] front end: core selection,
    benchmark-name validation and the [--seed]/[--scale]/[--jobs] terms
    that its one-shot subcommands and [braidsim client] share. Core names
    come from {!Braid_uarch.Config.Core_kind}, so the CLI cannot drift
    from the api/DSE/fuzz spellings. *)

val core_kind_conv : Braid_uarch.Config.core_kind Cmdliner.Arg.conv
(** Parses ["in-order"], ["dep-steer"], ["ooo"], ["braid"]; a typo is a
    usage error listing the valid spellings. *)

val core_arg : Braid_uarch.Config.core_kind Cmdliner.Term.t
(** [--core CORE], defaulting to the braid core. *)

val preset_arg : Braid_uarch.Config.t Cmdliner.Term.t
(** [--preset PRESET]: the Table 4 preset named by its core kind
    (defaults to [braid_8wide]). *)

val seed_arg : int Cmdliner.Term.t
(** [--seed SEED], default 1. *)

val scale_arg : default:int -> int Cmdliner.Term.t
(** [--scale N] (positive): target dynamic instruction count. *)

val positive_int : int Cmdliner.Arg.conv
(** Strictly positive integers; 0/negative is a usage error. *)

val jobs_arg : default:int -> int Cmdliner.Term.t
(** [--jobs N] (positive): domain-pool width. *)

val bench_conv : Braid_workload.Spec.profile Cmdliner.Arg.conv
(** Benchmark by name; unknown names are usage errors listing the valid
    ones. *)

val bench_arg : Braid_workload.Spec.profile Cmdliner.Term.t
(** Required positional benchmark argument. *)

val bench_name_conv : string Cmdliner.Arg.conv
(** Like {!bench_conv} but yields the validated name — for
    comma-separated benchmark lists. *)

val experiment_id_conv : string Cmdliner.Arg.conv
(** Experiment id validated against {!Braid_sim.Experiments}; a typo is a
    usage error listing the valid ids. *)

val only_arg : string list Cmdliner.Term.t
(** [--only IDS]: comma-separated, validated experiment ids (default
    all). *)

val json_file_arg : doc:string -> string option Cmdliner.Term.t
(** [--json FILE] with a caller-supplied description ([-] conventionally
    means stdout). *)
