(** VM exit reasons, following the Intel SDM basic exit reason numbers
    for the events this repository models. *)

type t =
  | Exception_nmi
  | External_interrupt
  | Interrupt_window
  | Cpuid
  | Hlt
  | Invlpg
  | Rdtsc
  | Vmcall
  | Vmclear
  | Vmlaunch
  | Vmptrld
  | Vmptrst
  | Vmread
  | Vmresume
  | Vmwrite
  | Vmxoff
  | Vmxon
  | Cr_access
  | Dr_access
  | Io_instruction
  | Msr_read
  | Msr_write
  | Mwait_exit
  | Pause_exit
  | Ept_violation
  | Ept_misconfig
  | Invept
  | Preemption_timer
  | Apic_access
  | Apic_write
  | Eoi_induced
  | Wbinvd
  | Xsetbv

val basic_number : t -> int
(** The architectural basic exit reason number (SDM Appendix C). *)

val n_basic_numbers : int
(** One more than the largest {!basic_number}: the length of an array
    indexed by it. *)

val of_basic_number : int -> t option
(** The reason with that basic number; [None] for a number no modeled
    reason has. *)

val name : t -> string

val is_vmx_instruction : t -> bool
(** VMX instructions always belong to a (guest) hypervisor operating its
    own VM; L0 handles them itself rather than reflecting them deeper. *)

val all : t list
(** Every inhabitant, for per-backend exhaustiveness tests. *)
