(** A virtual machine: its virtualization level, address space and MMIO
    dispatch table. A vCPU points at its VM; the VM keeps no vCPU
    list. *)

type mmio_handler = Svt_mem.Addr.Gpa.t -> int64 -> int -> int64 option
(** [(gpa, value-or-zero-for-reads, size)] returning the reply for
    reads. *)

type t

val create :
  machine:Machine.t ->
  name:string ->
  level:int ->
  ram_bytes:int ->
  cpuid:Svt_arch.Cpuid_db.t ->
  t
(** [level]: 0 = host, 1 = guest of L0, 2 = nested guest. [cpuid] is the
    (already masked) view this VM's guests see. RAM is backed by host
    frames through a fresh EPT. *)

val name : t -> string
val level : t -> int
val aspace : t -> Svt_mem.Address_space.t
val cpuid_db : t -> Svt_arch.Cpuid_db.t

(** {2 Device dispatch} *)

val register_mmio : t -> region:string -> mmio_handler -> unit
(** Handle accesses to the named MMIO region of the address space. *)

val handle_mmio : t -> Svt_mem.Addr.Gpa.t -> int64 -> int -> int64 option
