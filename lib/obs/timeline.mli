(** Konata-style ASCII pipeline diagram assembled from tracer events.

    Each instruction that has any recorded activity inside the cycle
    window gets one row; columns are cycles. Letters mark stage
    boundaries ([F]etch, [D]ispatch, [I]ssue, e[X]ecute-complete,
    [C]ommit), ['.'] fills waiting-to-issue gaps, ['='] fills execution,
    ['-'] fills the completed-but-not-committed tail. *)

val render :
  ?from_cycle:int -> ?cycles:int -> label:(int -> string) -> Tracer.event list -> string
(** The diagram for cycles [\[from_cycle, from_cycle + cycles)]. [label]
    renders the left-hand instruction column. Returns [""] when no
    instruction touches the window. *)
