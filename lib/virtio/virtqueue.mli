(** Split virtqueue (VirtIO 1.0 layout) living in real simulated guest
    memory: the descriptor table, available ring and used ring are read
    and written through the guest's address space — hence through its
    EPT — exactly as driver and device would. *)

type t

val create : aspace:Svt_mem.Address_space.t -> size:int -> t
(** [size] must be a power of two; the rings are allocated from fresh
    guest pages of [aspace]. *)

(** {2 Driver side} *)

val push_avail :
  t -> addr:Svt_mem.Addr.Gpa.t -> len:int -> device_writable:bool -> int option
(** Expose a buffer to the device; returns the descriptor index, or
    [None] when the ring is full. *)

val next_free : t -> int option
(** The descriptor the next {!push_avail} will take, or [None] when the
    ring is full. A driver that keeps one buffer per descriptor writes
    the packet into that descriptor's buffer before pushing it. *)

val pop_used : t -> (int * int) option
(** Collect one completion as [(descriptor id, written length)]. *)

val last_used_addr : t -> Svt_mem.Addr.Gpa.t option
(** Buffer address of the most recently collected completion — how a
    driver without a side table locates the payload. *)

(** {2 Device side} *)

val avail_pending : t -> int
(** Buffers the driver has exposed and the device has not consumed. *)

val pop_avail : t -> (int * Svt_mem.Addr.Gpa.t * int * bool) option
(** Take the next available descriptor:
    [(id, buffer gpa, length, device-writable)]. *)

val push_used : t -> id:int -> len:int -> unit
