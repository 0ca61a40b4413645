(** virtio-net device with a vhost-style backend.

    The guest driver writes packets into guest memory and exposes them on
    the TX virtqueue; the doorbell is an MMIO page, so a kick is the
    EPT_MISCONFIG exit the paper's profiles show dominating L0 time under
    network load. The backend runs as its own simulator process (the
    vhost worker): it drains TX, pays the host-side costs and hands
    packets to a configurable sink; reception mirrors this through
    guest-posted RX buffers plus an interrupt. EVENT_IDX-style
    notification suppression and a short busy-poll window mean sustained
    streams stop kicking. *)

type t

val create : machine:Svt_hyp.Machine.t -> vm:Svt_hyp.Vm.t -> name:string -> t
(** Allocates the queues and the doorbell MMIO region in [vm]'s address
    space and registers the doorbell handler. *)

val doorbell_gpa : t -> Svt_mem.Addr.Gpa.t

val set_tx_sink : t -> (string -> unit) -> unit
(** Where transmitted packets go (the fabric, or L1's forwarding path).
    Runs in the backend process, so it may delay. Packets are immutable
    wire packets: a TX payload equal to the one before it is handed over
    as the same string. *)

val set_raise_irq : t -> (unit -> unit) -> unit
(** Completion interrupt into the guest. *)

val start_backend : t -> unit
(** Spawn the vhost worker process. *)

(** {2 Guest driver side} *)

val driver_transmit : t -> bytes -> bool
(** Queue a packet on TX (reclaiming completed descriptors first): it is
    copied into the guest buffer of the descriptor it takes, one 16 KB
    buffer per descriptor. The caller must then kick the doorbell if
    {!need_kick}. [false] when the ring is full. *)

val need_kick : t -> bool
(** Whether the backend has parked and needs a doorbell. *)

val tx_backlog : t -> int
val driver_fill_rx : t -> int -> unit
(** Post [n] empty RX buffers for the device to fill. *)

val driver_receive : t -> bytes option
(** Collect one received packet; the consumed buffer is re-posted
    automatically so the RX ring never starves. *)

(** {2 Backend side} *)

val backend_deliver : t -> string -> unit
(** Deliver a packet from the outside into a posted RX buffer, complete
    it and raise the interrupt; drops on RX overrun as real NICs do. *)
