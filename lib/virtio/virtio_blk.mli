(** virtio-blk device over a ramdisk backend. Requests carry a 16-byte
    header (kind, sector, count) ahead of the payload in one descriptor;
    the doorbell is MMIO like virtio-net; the backend worker pays the
    tmpfs-grade service latency (plus the nested path penalty for an L2
    disk) and completes with an interrupt. *)

type req_kind =
  | Read
  | Write
  | Flush  (** a barrier against the backing page cache: no data path *)

type t

val queue_size : int

val create :
  machine:Svt_hyp.Machine.t ->
  vm:Svt_hyp.Vm.t ->
  name:string ->
  disk:Ramdisk.t ->
  t

val doorbell_gpa : t -> Svt_mem.Addr.Gpa.t

val need_kick : t -> bool
(** Whether the backend has parked and needs a doorbell. *)

val set_raise_irq : t -> (unit -> unit) -> unit

val set_nested_penalty : t -> Svt_engine.Time.t -> unit
(** Extra backend service time when the guest's disk is itself a file on
    a virtual disk (an L2 image on L1's virtio disk). *)

val start_backend : t -> unit

(** {2 Guest driver side} *)

val driver_submit :
  t -> kind:req_kind -> sector:int -> count:int -> ?data:bytes -> unit -> int option
(** Queue a request (payload required for writes, ≤ 4 KB); returns the
    descriptor id, or [None] when the ring is full. Kick the doorbell
    afterwards if {!need_kick}. *)

val driver_collect : t -> (int * req_kind * bytes option) option
(** Collect one completion; reads carry their payload back. *)

(** {2 Introspection} *)

val service_time : t -> kind:req_kind -> Svt_engine.Time.t
