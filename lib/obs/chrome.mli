(** Chrome [trace_event] export of a tracer's retained window.

    The output is the JSON Object Format understood by [chrome://tracing]
    and Perfetto: one process, one named thread per track (front end plus
    one per BEU/FU), instruction execution as duration ("X") events, stage
    crossings as thread-scoped instants, stalls and cache-miss fills as
    short duration events with their reason in [args]. One simulated cycle
    maps to one microsecond of trace time. *)

val export : ?label:(int -> string) -> Tracer.t -> string
(** [label uid] names an instruction's execution span (default
    ["uid <n>"]); tracks are named ["front-end"] for [-1] and ["BEU <t>"]
    otherwise. The result is a complete JSON document ending in a
    newline. *)
