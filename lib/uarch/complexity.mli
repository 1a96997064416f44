(** Static complexity estimates for the structures §5.1 discusses.

    These are first-order area/energy indices of the classic
    complexity-effective literature, not circuit models:

    - register files grow with entries × (ports)² — doubling ports doubles
      both bit-lines and word-lines (Farkas et al.; Zyuban & Kogge);
    - CAM-based schedulers pay a tag broadcast across every window entry
      per issued result; FIFO schedulers compare only their head window;
    - bypass networks grow with (drivers × consumers) per level, i.e.
      quadratically in the value-per-cycle bandwidth at each level;
    - the rename table ports scale with rename bandwidth.

    The absolute unit is arbitrary; ratios between configurations are the
    meaningful output (the paper's "almost in-order complexity" claim made
    quantitative). *)

type t = {
  rf_area : float;
      (** external RF + (braid) internal RFs: Σ entries × (r+w)² *)
  scheduler_area : float;
      (** window entries weighted by CAM cost (full broadcast) or FIFO
          cost (head-window comparators only) *)
  bypass_area : float;  (** levels × (values per cycle)² × width *)
  rename_ports : float;  (** rename-table access ports *)
  wakeup_broadcast_per_result : float;
      (** window entries a completing result's tag must be compared
          against *)
  total : float;  (** sum of the area indices *)
}

val of_config : Config.t -> t

val relative : t -> t -> float
(** [relative a b] = [a.total /. b.total]. *)

val describe : Config.t -> string
(** Human-readable breakdown. *)

type energy_proxy = {
  ext_rf_accesses_per_instr : float;
  int_rf_accesses_per_instr : float;
  bypass_values_per_instr : float;
  broadcast_work_per_instr : float;
      (** completing results × window entries scanned, per instruction *)
}

val energy_of_run : Config.t -> Core.result -> energy_proxy
(** Dynamic activity of a finished run, normalised per instruction —
    the §5.1 switching-activity argument. *)
