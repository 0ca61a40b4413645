(** Disk benchmarks over virtio-blk (§6.2): ioping (512 B at queue depth
    1, latency) and fio (4 KB at queue depth 8, bandwidth). Writes issue
    a data transfer followed by a flush barrier — two virtio round trips,
    which is why they are both slower and more accelerable. *)

type op = Randread | Randwrite

type latency_result = { mean_us : float; p99_us : float }

val run_ioping : ?ops:int -> op:op -> Svt_core.System.t -> latency_result

type bandwidth_result = { kb_per_sec : float }

val run_fio :
  ?ops:int -> ?depth:int -> op:op -> Svt_core.System.t -> bandwidth_result
