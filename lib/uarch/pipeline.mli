(** The solo entry point the benchmark harness times:
    [Core.result (Core.run ?warm_data cfg trace)]. Everything else calls
    {!Core} directly. *)

val run : ?warm_data:int list -> Config.t -> Trace.t -> Core.result
