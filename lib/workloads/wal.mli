(** Write-ahead log over virtio-blk: the durability substrate of the
    mini transactional engine. Records buffer in memory; {!commit}
    serializes them to log sectors, writes them through the block device
    and issues a flush barrier — the write pattern whose exit cost
    dominates nested transaction latency. *)

type t

val create : blk:Svt_virtio.Virtio_blk.t -> vcpu:Svt_hyp.Vcpu.t -> t
(** An empty log whose circular area is the 65,536 sectors from sector
    4,096. *)

val append : t -> string -> int
(** Buffer a record; returns its LSN. *)

val commit : t -> unit
(** Durably commit everything pending (write + kick + await + flush).
    Runs in the vCPU process; the circular log wraps when full. *)
