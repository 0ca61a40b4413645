(** Sink 2: Chrome trace-event JSON export.

    Collects spans (bounded by [limit]; overflow is counted, not
    silently ignored) and serializes them as complete ("ph":"X") events
    loadable in Perfetto / chrome://tracing: pid 0 is the simulated
    machine, tid [vcpu+1] one row per vCPU, "ts"/"dur" in microseconds
    of virtual time, span tags under "args". *)

type t

val create : ?limit:int -> unit -> t
(** [limit] caps retained spans (default 1_000_000). *)

val sink : t -> Span.t -> unit
(** The subscriber to install on a probe. *)

val dropped : t -> int

val to_string : t -> string
(** The complete JSON object ({"traceEvents":[...],...}), events sorted
    by start time with process/thread-name metadata first. *)

val write_file : t -> string -> unit
