(** The per-machine observability bundle: one {!Probe} for the
    instrumented hot paths and optional structured sinks ({!Timeline},
    {!Chrome_trace}) installed on demand.

    A fresh recorder has no span sink — the null-sink state: every
    probe site short-circuits and the simulation is bit-identical to an
    unobserved one. *)

module Time = Svt_engine.Time

type t

val create : clock:(unit -> Time.t) -> unit -> t
val probe : t -> Probe.t

val enable_timeline : t -> Timeline.t
(** Install (once) and return the timeline sink. *)

val enable_chrome : t -> Chrome_trace.t
(** Install (once) and return the Chrome trace-event sink. *)
