(** Telemetry heartbeat rows for JSONL ledgers.

    A heartbeat is an ordinary {!Ledger.entry} under the reserved
    workload ["telemetry"]: it journals, CRCs and salvages through
    {!Ledger.recover} like any row, while sweep resume and the fuzz
    corpus both skip it (its run_id never matches a spec point, and
    corpus classification ignores unknown workloads). The numeric
    snapshot rides in [metrics]; [data] carries the ["telemetry"]
    marker naming the producing subsystem. [wall_s] is pinned to 0.0 so
    heartbeats never reintroduce a nondeterministic top-level field. *)

val entry : source:string -> seq:int -> (string * float) list -> Ledger.entry
(** Build heartbeat number [seq] (the sequence index doubles as the
    point seed, giving every heartbeat a distinct run_id) from a
    metrics snapshot. [source] names the producer ("sweep", "fuzz"). *)

val is_heartbeat : Ledger.entry -> bool

val source : Ledger.entry -> string option
(** The producer marker, when the entry is a heartbeat. *)
