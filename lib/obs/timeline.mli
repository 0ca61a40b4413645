(** Sink 1: per-vCPU span timelines plus per-span-kind latency
    histograms, queryable at end of run.

    Each vCPU keeps a bounded ring of its most recent spans; the
    per-kind {!Svt_stats.Histogram}s and time totals see every span
    regardless of wraparound, so summaries stay exact on long runs. *)

module Time = Svt_engine.Time
module Histogram = Svt_stats.Histogram

type t

type summary = {
  kind : Span.kind;
  count : int;
  mean_ns : float;
  p99_ns : int;
  max_ns : int;
  total_ns : int;
}

val create : ?capacity:int -> unit -> t
(** [capacity] bounds each vCPU's retained-span ring (default 4096). *)

val sink : t -> Span.t -> unit
(** The subscriber to install on a probe. *)

val total_spans : t -> int

val recorded : t -> vcpu:int -> int
(** Spans ever recorded for this vCPU (≥ retained). *)

val spans : t -> vcpu:int -> Span.t list
(** Retained spans of one vCPU, oldest first. *)

val count : t -> Span.kind -> int

val summaries : t -> summary list
(** Non-empty kinds only, in kind order. *)

val pp : Format.formatter -> t -> unit
