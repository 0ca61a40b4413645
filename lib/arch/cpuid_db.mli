(** CPUID leaf database. The architecture requires CPUID to be emulated
    by the hypervisor (it always exits) — the paper's canonical minimal
    trap (§2.3). Hypervisors mask leaves before exposing them: L0 keeps
    VMX visible to L1 (so L1 can nest) but hides it from plain guests. *)

type regs = { eax : int64; ebx : int64; ecx : int64; edx : int64 }
type t

val host : unit -> t
(** Haswell-flavoured host leaves (vendor string, features incl. VMX).
    One table per process: no function writes a [t] once built, so the
    host table and the views derived from it can be shared by every
    stack and worker domain. *)

val query : t -> leaf:int -> subleaf:int -> regs
(** Unknown leaves read as zeroes, as hardware does past the max leaf. *)

val guest_view : t -> expose_vmx:bool -> t
(** Derive the view a hypervisor exposes to a guest: the hypervisor-
    present bit is set, and VMX is kept only when the guest will itself
    run VMs. *)
