(** Named counters and time accumulators. The trap paths charge handler
    time here per exit reason, which is how the paper's profiling claims
    are reproduced (e.g. EPT_MISCONFIG's share of L0 time, §6.3.1). *)

type t

val create : unit -> t
val counter_ref : t -> string -> int ref
(** The counter's cell, created at 0 if missing: a caller that bumps the
    same counter on a hot path looks it up once and increments the
    cell. *)

val timer_ref : t -> string -> int ref
(** The timer's cell, in nanoseconds, created at 0 if missing. *)

val time : t -> string -> Svt_engine.Time.t
val counters : t -> (string * int) list
(** Sorted by name. *)

val time_share : t -> string -> whole:Svt_engine.Time.t -> float
(** Share of a timer in [whole] (0 when [whole] is zero). *)
