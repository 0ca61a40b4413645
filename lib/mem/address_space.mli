(** A guest's physical address-space layout and its backing: which GPA
    ranges are RAM (EPT-mapped to host frames) and which are MMIO
    regions (deliberately EPT-misconfigured, so stores trap).

    The guest-physical accessors go through the EPT, which is how
    hypervisor and device code touch guest memory (virtqueues, command
    rings) exactly as real DMA/copy paths would. *)

type region = {
  name : string;
  base : Addr.Gpa.t;
  len : int;
  kind : [ `Ram | `Mmio ];
}

type t

val create : mem:Phys_mem.t -> alloc:Frame_alloc.t -> ram_bytes:int -> t
(** Back [ram_bytes] of guest RAM with host frames up front (the paper's
    VMs avoid swapping). *)

val ept : t -> Ept.t
val regions : t -> region list

val add_mmio_region : t -> name:string -> len:int -> Addr.Gpa.t
(** Carve a fresh MMIO region (device BAR); returns its base. Guest
    accesses raise EPT_MISCONFIG tagged with [name]. *)

val region_of_gpa : t -> Addr.Gpa.t -> region option
val translate : t -> gpa:Addr.Gpa.t -> access:Ept.access -> (Addr.Hpa.t, Ept.fault) result

(** {2 Guest-physical accessors (raise on faults)} *)

val read_u64 : t -> Addr.Gpa.t -> int64
val write_u64 : t -> Addr.Gpa.t -> int64 -> unit
val read_u32 : t -> Addr.Gpa.t -> int
val write_u32 : t -> Addr.Gpa.t -> int -> unit
val read_u16 : t -> Addr.Gpa.t -> int
val write_u16 : t -> Addr.Gpa.t -> int -> unit
val read_u8 : t -> Addr.Gpa.t -> int
val write_u8 : t -> Addr.Gpa.t -> int -> unit
val read_bytes : t -> Addr.Gpa.t -> int -> bytes
(** Bulk copies are page-granular: one EPT translation (with its
    permission check) and one blit per 4 KB page. A faulting page raises
    before it is touched; pages before it have already been copied. *)

val write_bytes : t -> Addr.Gpa.t -> bytes -> unit

val alloc_guest_pages : t -> int -> Addr.Gpa.t
(** Allocate fresh, already-mapped guest pages (rings, buffers); returns
    the base GPA. *)
