(** Throttled single-line stderr progress for a running campaign:
    {v  sweep:  17/24 done, 1 failed, 12.3 runs/s  v}
    Updates are rate-limited (every 0.1 s of wall time, plus always the
    final one) so a fast matrix does not flood the terminal.
    [step] may be called from the pool's [on_result] callback (the pool
    already serializes those). *)

type t

val create : label:string -> total:int -> t

val step : t -> ok:bool -> unit
(** Record one finished run and maybe redraw. *)

val finish : t -> unit
(** Force a final draw and terminate the line. *)
