(** netperf-style network benchmarks over the virtio-net stack (§6.2):
    TCP_RR round-trip latency of 1-byte transactions, and TCP_STREAM
    throughput of 16 KB sends with delayed ACKs. The client runs on the
    separate physical machine across the 10 GbE fabric. *)

val stream_packet_bytes : int

type rr_result = { mean_rtt_us : float; p99_rtt_us : float; transactions : int }

val run_rr : ?transactions:int -> Svt_core.System.t -> rr_result
(** Attach a net device, run the server loop in the guest and the client
    on the fabric's far end, back to back with no think time; returns
    client-observed round-trip times. *)

type stream_result = { mbps : float; packets : int }

val run_stream : ?duration:Svt_engine.Time.t -> Svt_core.System.t -> stream_result
(** One-way throughput over the interval that actually carried traffic. *)
