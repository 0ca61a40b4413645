(** VMCS fields: guest/host state for context switches, exit information,
    execution controls, the physical pointers that need GPA→HPA
    translation during vmcs12→vmcs02 transforms, and the three SVt fields
    the paper adds (Table 2). *)

type t =
  (* 16/32-bit control & info *)
  | Vpid
  | Exit_reason
  | Exit_qualification
  | Exit_interrupt_info
  | Entry_interrupt_info
  | Instruction_length
  | Pin_based_controls
  | Cpu_based_controls
  | Secondary_controls
  | Exception_bitmap
  | Entry_controls
  | Exit_controls
  | Preemption_timer_value
  (* physical pointers: values are guest-physical in a vmcs written by a
     guest hypervisor and must be translated during shadow transforms *)
  | Ept_pointer
  | Io_bitmap_a
  | Io_bitmap_b
  | Msr_bitmap
  | Apic_access_addr
  | Virtual_apic_page
  | Posted_interrupt_desc
  | Vmcs_link_pointer
  (* guest state *)
  | Guest_rip
  | Guest_rsp
  | Guest_rflags
  | Guest_cr0
  | Guest_cr3
  | Guest_cr4
  | Guest_efer
  | Guest_gdtr_base
  | Guest_idtr_base
  | Guest_cs_base
  | Guest_ss_base
  | Guest_interruptibility
  | Guest_activity_state
  (* host state *)
  | Host_rip
  | Host_rsp
  | Host_cr0
  | Host_cr3
  | Host_cr4
  | Host_efer
  (* SVt extension fields (paper Table 2) *)
  | Svt_visor
  | Svt_vm
  | Svt_nested

val all : t list

val index : t -> int
(** The field's position in {!all}, from 0. *)

val of_index : int -> t
(** The field at position [i] of {!all}: the inverse of {!index}. *)

val is_physical_pointer : t -> bool
(** Fields a guest hypervisor fills with its own guest-physical addresses;
    L0 translates them to host-physical when building vmcs02 (§2.1). *)

val is_guest_state : t -> bool
(** Saved and loaded by the hardware on trap/resume. *)

val is_exit_info : t -> bool
val is_control : t -> bool

val is_ooh_delegated : t -> bool
(** Fields the Out-of-Hypervisor mode delegates to L1. *)

val valid_for : Svt_arch.Backend.kind -> t -> bool
(** Field validity on an architecture backend. *)

val name : t -> string
val equal : t -> t -> bool
