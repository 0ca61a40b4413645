(** Sink 1: per-span-kind latency histograms ({!Svt_stats.Histogram})
    and time totals over every span, queryable at end of run. A kind's
    histogram is made on its first span, so {!create} is cheap enough
    for every run. *)

module Time = Svt_engine.Time
module Histogram = Svt_stats.Histogram

type t

type summary = {
  kind : Span.kind;
  count : int;
  mean_ns : float;
  p99_ns : int;
  total_ns : int;
}

val create : unit -> t

val sink : t -> Span.t -> unit
(** The subscriber to install on a probe. *)

val total_spans : t -> int

val count : t -> Span.kind -> int

val summaries : t -> summary list
(** Non-empty kinds only, in kind order. *)

val pp : Format.formatter -> t -> unit
