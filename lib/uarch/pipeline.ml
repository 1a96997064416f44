let run ?warm_data cfg trace = Core.result (Core.run ?warm_data cfg trace)
