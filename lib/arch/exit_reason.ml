(* VM exit reasons, following Intel SDM basic exit reason numbers where we
   model the corresponding event. The workloads in this repository exercise
   the subset the paper's evaluation profiles: CPUID, MSR accesses,
   EPT_MISCONFIG (virtio doorbells), EPT_VIOLATION, external interrupts,
   HLT, and the VMX instructions L1 issues while operating its own VM. *)

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

let basic_number = function
  | Exception_nmi -> 0
  | External_interrupt -> 1
  | Interrupt_window -> 7
  | Cpuid -> 10
  | Hlt -> 12
  | Invlpg -> 14
  | Rdtsc -> 16
  | Vmcall -> 18
  | Vmclear -> 19
  | Vmlaunch -> 20
  | Vmptrld -> 21
  | Vmptrst -> 22
  | Vmread -> 23
  | Vmresume -> 24
  | Vmwrite -> 25
  | Vmxoff -> 26
  | Vmxon -> 27
  | Cr_access -> 28
  | Dr_access -> 29
  | Io_instruction -> 30
  | Msr_read -> 31
  | Msr_write -> 32
  | Mwait_exit -> 36
  | Pause_exit -> 40
  | Apic_access -> 44
  | Eoi_induced -> 45
  | Ept_violation -> 48
  | Ept_misconfig -> 49
  | Invept -> 50
  | Preemption_timer -> 52
  | Wbinvd -> 54
  | Xsetbv -> 55
  | Apic_write -> 56

let name = function
  | Exception_nmi -> "EXCEPTION_NMI"
  | External_interrupt -> "EXTERNAL_INTERRUPT"
  | Interrupt_window -> "INTERRUPT_WINDOW"
  | Cpuid -> "CPUID"
  | Hlt -> "HLT"
  | Invlpg -> "INVLPG"
  | Rdtsc -> "RDTSC"
  | Vmcall -> "VMCALL"
  | Vmclear -> "VMCLEAR"
  | Vmlaunch -> "VMLAUNCH"
  | Vmptrld -> "VMPTRLD"
  | Vmptrst -> "VMPTRST"
  | Vmread -> "VMREAD"
  | Vmresume -> "VMRESUME"
  | Vmwrite -> "VMWRITE"
  | Vmxoff -> "VMXOFF"
  | Vmxon -> "VMXON"
  | Cr_access -> "CR_ACCESS"
  | Dr_access -> "DR_ACCESS"
  | Io_instruction -> "IO_INSTRUCTION"
  | Msr_read -> "MSR_READ"
  | Msr_write -> "MSR_WRITE"
  | Mwait_exit -> "MWAIT"
  | Pause_exit -> "PAUSE"
  | Ept_violation -> "EPT_VIOLATION"
  | Ept_misconfig -> "EPT_MISCONFIG"
  | Invept -> "INVEPT"
  | Preemption_timer -> "PREEMPTION_TIMER"
  | Apic_access -> "APIC_ACCESS"
  | Apic_write -> "APIC_WRITE"
  | Eoi_induced -> "EOI_INDUCED"
  | Wbinvd -> "WBINVD"
  | Xsetbv -> "XSETBV"

(* VMX instructions always belong to a (guest) hypervisor operating its own
   VM; L0 handles them itself rather than reflecting them deeper. *)
let is_vmx_instruction = function
  | Vmclear | Vmlaunch | Vmptrld | Vmptrst | Vmread | Vmresume | Vmwrite
  | Vmxoff | Vmxon | Invept ->
      true
  | _ -> false

(* Every inhabitant, for per-backend exhaustiveness tests (no exit may
   map to a degenerate cost-model entry or an empty spelling). *)
let all =
  [ Exception_nmi; External_interrupt; Interrupt_window; Cpuid; Hlt; Invlpg;
    Rdtsc; Vmcall; Vmclear; Vmlaunch; Vmptrld; Vmptrst; Vmread; Vmresume;
    Vmwrite; Vmxoff; Vmxon; Cr_access; Dr_access; Io_instruction; Msr_read;
    Msr_write; Mwait_exit; Pause_exit; Ept_violation; Ept_misconfig; Invept;
    Preemption_timer; Apic_access; Apic_write; Eoi_induced; Wbinvd; Xsetbv ]

let n_basic_numbers =
  1 + List.fold_left (fun m r -> max m (basic_number r)) 0 all

(* The inverse of [basic_number]; the [Some] cells are built once, so a
   lookup allocates nothing. *)
let by_number =
  let tbl = Array.make n_basic_numbers None in
  List.iter (fun r -> tbl.(basic_number r) <- Some r) all;
  tbl

let of_basic_number n =
  if n >= 0 && n < n_basic_numbers then by_number.(n) else None
