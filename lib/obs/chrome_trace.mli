(** Sink 2: Chrome trace-event JSON export.

    Collects up to 1,000,000 spans (overflow is counted in {!dropped},
    not silently ignored) and serializes them as complete ("ph":"X") events
    loadable in Perfetto / chrome://tracing: pid 0 is the simulated
    machine, tid [vcpu+1] one row per vCPU, "ts"/"dur" in microseconds
    of virtual time, span tags under "args". *)

type t

val create : unit -> t

val sink : t -> Span.t -> unit
(** The subscriber to install on a probe. *)

val dropped : t -> int

val to_string : t -> string
(** The complete JSON object ({"traceEvents":[...],...}), events sorted
    by start time with process/thread-name metadata first. *)

val write_file : t -> string -> unit
