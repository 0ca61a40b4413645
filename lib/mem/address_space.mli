(** A guest's physical address-space layout and its backing: which GPA
    ranges are RAM (EPT-mapped to host frames) and which are MMIO
    regions (deliberately EPT-misconfigured, so stores trap).

    The guest-physical accessors go through the EPT, which is how
    hypervisor and device code touch guest memory (virtqueues, command
    rings) exactly as real DMA/copy paths would. *)

type t

val create : mem:Phys_mem.t -> alloc:Frame_alloc.t -> ram_bytes:int -> t
(** Back [ram_bytes] of guest RAM with host frames up front (the paper's
    VMs avoid swapping). *)

val ept : t -> Ept.t

val add_mmio_region : t -> name:string -> len:int -> Addr.Gpa.t
(** Carve a fresh MMIO region (device BAR); returns its base. Guest
    accesses raise EPT_MISCONFIG tagged with [name]: {!Ept.lookup} of any
    page of the region answers [Misconfig {tag = name}]. *)

(** {2 Guest-physical accessors (raise on faults)} *)

val read_u64 : t -> Addr.Gpa.t -> int
(** A 64-bit word as an OCaml int, as in {!Phys_mem.read_u64}. The
    scalar accessors translate through {!Ept.resolve}: on a mapped page
    they allocate nothing. *)

val write_u64 : t -> Addr.Gpa.t -> int -> unit
val read_u32 : t -> Addr.Gpa.t -> int
val write_u32 : t -> Addr.Gpa.t -> int -> unit
val read_u16 : t -> Addr.Gpa.t -> int
val write_u16 : t -> Addr.Gpa.t -> int -> unit
val read_u8 : t -> Addr.Gpa.t -> int
val read_bytes : t -> Addr.Gpa.t -> int -> bytes
(** Bulk copies are page-granular: one EPT translation (with its
    permission check) and one blit per 4 KB page. A faulting page raises
    before it is touched; pages before it have already been copied. *)

val read_into : t -> Addr.Gpa.t -> bytes -> unit
(** {!read_bytes} into a caller's buffer, filling all of it. *)

val write_bytes : t -> Addr.Gpa.t -> bytes -> unit

val host_page : t -> Addr.Gpa.t -> bytes
(** The host page backing the guest page of [gpa], translated once
    through the EPT for write access (a fault raises as {!write_u32}
    would). Its bytes are the guest's own: a store through either is
    seen through the other, as long as the guest page is not remapped,
    and this module only ever maps fresh pages. *)

val alloc_guest_pages : t -> int -> Addr.Gpa.t
(** Allocate fresh, already-mapped guest pages (rings, buffers); returns
    the base GPA. *)
