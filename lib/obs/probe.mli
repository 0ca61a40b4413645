(** Probe: the emitter handle of the observability layer.

    Instrumented hot paths hold a probe and emit {!Span.t}s through it;
    sinks subscribe without the emitters knowing. With no subscriber (the
    null-sink state, the default) every operation short-circuits on a
    single test, so instrumentation is safe to leave in hot paths. Probes
    never advance virtual time: installing or removing sinks cannot
    change simulation results. *)

module Time = Svt_engine.Time

type t

val create : clock:(unit -> Time.t) -> unit -> t
(** [clock] supplies span timestamps (normally the owning machine's
    simulator clock). *)

val is_on : t -> bool
(** True iff at least one subscriber is installed. Emitters
    use this to skip span/tag construction entirely. *)

val now : t -> Time.t
(** The probe's clock. *)

val subscribe : t -> (Span.t -> unit) -> unit
(** Install a sink; called once per emitted span, in subscription
    order. *)

val span :
  t ->
  Span.kind ->
  vcpu:int ->
  level:int ->
  ?core:int ->
  ?ctx:int ->
  ?tags:(string * string) list ->
  start:Time.t ->
  unit ->
  unit
(** Emit a span from [start] to the probe's current clock. [core]/[ctx]
    pin it to a hardware lane (one Perfetto track per hardware thread);
    the -1 defaults keep it on the per-vCPU track. *)

val wrap :
  t ->
  Span.kind ->
  vcpu:int ->
  level:int ->
  ?core:int ->
  ?ctx:int ->
  ?tags:(unit -> (string * string) list) ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span; [tags] is only evaluated on emission.
    If the thunk raises, the span is still emitted — with an ["error"]
    tag holding [Printexc.to_string] of the exception, prepended to the
    computed tags — and the exception is re-raised with its original
    backtrace. *)
