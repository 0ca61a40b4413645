(** Latency/interference model of the waiting mechanisms available to the
    SW SVt command channels (§6.1): polling, monitor/mwait, and a
    futex-style mutex, across thread placements. *)

val retry_backoff : attempt:int -> Svt_engine.Time.t
(** Bounded exponential backoff (virtual ns) before re-posting after
    channel backpressure: 500 ns doubling. The curve is monotone
    nondecreasing in [attempt] and hard-capped at
    {!retry_backoff_max} (attempt 6 = 32 µs); attempts below 0 clamp
    to 0. The cap is load-bearing: cluster tenant re-admission reuses
    this curve, so unbounded growth would stall evacuated tenants
    forever. *)

val retry_backoff_max : Svt_engine.Time.t
(** The hard ceiling of {!retry_backoff}: no attempt number, however
    large, waits longer than this. *)

val watchdog_timeout : attempt:int -> Svt_engine.Time.t
(** Stall-watchdog deadline for the SVt resume wait: 20 µs doubling,
    monotone nondecreasing and hard-capped at {!watchdog_timeout_max}
    (attempt 4 = 320 µs); attempts below 0 clamp to 0. *)

val watchdog_timeout_max : Svt_engine.Time.t
(** The hard ceiling of {!watchdog_timeout}. *)

val line_transfer :
  Svt_arch.Cost_model.t -> Mode.placement -> Svt_engine.Time.t
(** Coherence transfer of the monitored cache line between the producer
    and consumer for a given placement (cross-NUMA is ~an order of
    magnitude more than the SMT sibling). *)

val wake : wait:Mode.wait_mechanism -> placement:Mode.placement -> Svt_hyp.Cost.t
(** The consumer's wake-up as a cost value: one charge to the channel
    bucket, built once. *)

val response_latency :
  Svt_arch.Cost_model.t ->
  wait:Mode.wait_mechanism ->
  placement:Mode.placement ->
  Svt_engine.Time.t
(** Delay between the producer's flag write and the consumer starting
    useful work: the total of {!wake}. *)

val steals_cycles : Mode.wait_mechanism -> bool
(** Whether the waiter consumes issue slots of a colocated SMT thread
    while waiting — only polling does. *)

val enter : Mode.wait_mechanism -> Svt_hyp.Cost.t
(** Entering the waiting state (monitor setup, futex bookkeeping, first
    poll) as a cost value, built once. *)

val enter_cost : Svt_arch.Cost_model.t -> Mode.wait_mechanism -> Svt_engine.Time.t
(** The total of {!enter}. *)
