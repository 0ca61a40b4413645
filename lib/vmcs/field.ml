(* VMCS fields. The set below covers what the nested-virtualization paths
   in this repository read and write: guest/host state for context
   switches, exit information, execution controls, the physical pointers
   that need GPA→HPA translation during vmcs12→vmcs02 transforms, and the
   three SVt fields the paper adds (Table 2). *)

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

let all =
  [ Vpid; Exit_reason; Exit_qualification; Exit_interrupt_info;
    Entry_interrupt_info; Instruction_length; Pin_based_controls;
    Cpu_based_controls; Secondary_controls; Exception_bitmap; Entry_controls;
    Exit_controls; Preemption_timer_value; Ept_pointer; Io_bitmap_a;
    Io_bitmap_b; Msr_bitmap; Apic_access_addr; Virtual_apic_page;
    Posted_interrupt_desc; Vmcs_link_pointer; Guest_rip; Guest_rsp;
    Guest_rflags; Guest_cr0; Guest_cr3; Guest_cr4; Guest_efer;
    Guest_gdtr_base; Guest_idtr_base; Guest_cs_base; Guest_ss_base;
    Guest_interruptibility; Guest_activity_state; Host_rip; Host_rsp;
    Host_cr0; Host_cr3; Host_cr4; Host_efer; Svt_visor; Svt_vm; Svt_nested ]

(* The field's position in [all]; [Vmcs] stores field values in an array
   at this index and its dirty set as a bitmask over it. *)
let index = function
  | Vpid -> 0
  | Exit_reason -> 1
  | Exit_qualification -> 2
  | Exit_interrupt_info -> 3
  | Entry_interrupt_info -> 4
  | Instruction_length -> 5
  | Pin_based_controls -> 6
  | Cpu_based_controls -> 7
  | Secondary_controls -> 8
  | Exception_bitmap -> 9
  | Entry_controls -> 10
  | Exit_controls -> 11
  | Preemption_timer_value -> 12
  | Ept_pointer -> 13
  | Io_bitmap_a -> 14
  | Io_bitmap_b -> 15
  | Msr_bitmap -> 16
  | Apic_access_addr -> 17
  | Virtual_apic_page -> 18
  | Posted_interrupt_desc -> 19
  | Vmcs_link_pointer -> 20
  | Guest_rip -> 21
  | Guest_rsp -> 22
  | Guest_rflags -> 23
  | Guest_cr0 -> 24
  | Guest_cr3 -> 25
  | Guest_cr4 -> 26
  | Guest_efer -> 27
  | Guest_gdtr_base -> 28
  | Guest_idtr_base -> 29
  | Guest_cs_base -> 30
  | Guest_ss_base -> 31
  | Guest_interruptibility -> 32
  | Guest_activity_state -> 33
  | Host_rip -> 34
  | Host_rsp -> 35
  | Host_cr0 -> 36
  | Host_cr3 -> 37
  | Host_cr4 -> 38
  | Host_efer -> 39
  | Svt_visor -> 40
  | Svt_vm -> 41
  | Svt_nested -> 42

let by_index = Array.of_list all
let of_index i = by_index.(i)

(* Fields holding physical addresses that a guest hypervisor fills with
   *its* guest-physical values; L0 must translate them to host-physical
   when building vmcs02 (paper §2.1). *)
let is_physical_pointer = function
  | Ept_pointer | Io_bitmap_a | Io_bitmap_b | Msr_bitmap | Apic_access_addr
  | Virtual_apic_page | Posted_interrupt_desc | Vmcs_link_pointer ->
      true
  | _ -> false

(* Guest-state fields the hardware saves/loads on trap/resume. *)
let is_guest_state = function
  | Guest_rip | Guest_rsp | Guest_rflags | Guest_cr0 | Guest_cr3 | Guest_cr4
  | Guest_efer | Guest_gdtr_base | Guest_idtr_base | Guest_cs_base
  | Guest_ss_base | Guest_interruptibility | Guest_activity_state ->
      true
  | _ -> false

let is_exit_info = function
  | Exit_reason | Exit_qualification | Exit_interrupt_info
  | Instruction_length ->
      true
  | _ -> false

let is_control = function
  | Vpid | Pin_based_controls | Cpu_based_controls | Secondary_controls
  | Exception_bitmap | Entry_controls | Exit_controls
  | Preemption_timer_value | Entry_interrupt_info ->
      true
  | _ -> false

(* Fields the Out-of-Hypervisor mode delegates to L1: the guest-state and
   exit-information words its delegated handlers read and write directly.
   Physical pointers (which need L0's GPA→HPA translation), the execution
   controls and the SVt µ-register fields stay under L0's validation — a
   corrupted delegated field therefore surfaces to L1 as a delegation
   fault, while a corrupted L0-owned field still takes the reflected
   VM-entry-failure path. *)
let is_ooh_delegated f = is_guest_state f || is_exit_info f

(* Field validity, queried through the architecture backend. On x86/VMX
   every field is a word of the cached VMCS. On ARM NV/VHE the nested
   state is a memory-backed system-register image: most fields have a
   direct sysreg analog (GUEST_RIP ↔ ELR_EL2, the controls ↔ HCR_EL2 and
   friends), but the fields that encode the VMCS-caching machinery itself
   do not exist — there is no link pointer to a second cached VMCS, no
   port-I/O bitmaps (all ARM device access is MMIO through stage 2), and
   no SVt µ-registers because HW SVt's per-level hardware contexts extend
   exactly the caching machinery the ISA lacks. *)
let valid_for (arch : Svt_arch.Backend.kind) f =
  match arch with
  | Svt_arch.Backend.X86 -> true
  | Svt_arch.Backend.Arm -> (
      match f with
      | Vmcs_link_pointer | Io_bitmap_a | Io_bitmap_b | Svt_visor | Svt_vm
      | Svt_nested ->
          false
      | _ -> true)

let name f =
  match f with
  | Vpid -> "VPID"
  | Exit_reason -> "EXIT_REASON"
  | Exit_qualification -> "EXIT_QUALIFICATION"
  | Exit_interrupt_info -> "EXIT_INTERRUPT_INFO"
  | Entry_interrupt_info -> "ENTRY_INTERRUPT_INFO"
  | Instruction_length -> "INSTRUCTION_LENGTH"
  | Pin_based_controls -> "PIN_BASED_CONTROLS"
  | Cpu_based_controls -> "CPU_BASED_CONTROLS"
  | Secondary_controls -> "SECONDARY_CONTROLS"
  | Exception_bitmap -> "EXCEPTION_BITMAP"
  | Entry_controls -> "ENTRY_CONTROLS"
  | Exit_controls -> "EXIT_CONTROLS"
  | Preemption_timer_value -> "PREEMPTION_TIMER_VALUE"
  | Ept_pointer -> "EPT_POINTER"
  | Io_bitmap_a -> "IO_BITMAP_A"
  | Io_bitmap_b -> "IO_BITMAP_B"
  | Msr_bitmap -> "MSR_BITMAP"
  | Apic_access_addr -> "APIC_ACCESS_ADDR"
  | Virtual_apic_page -> "VIRTUAL_APIC_PAGE"
  | Posted_interrupt_desc -> "POSTED_INTERRUPT_DESC"
  | Vmcs_link_pointer -> "VMCS_LINK_POINTER"
  | Guest_rip -> "GUEST_RIP"
  | Guest_rsp -> "GUEST_RSP"
  | Guest_rflags -> "GUEST_RFLAGS"
  | Guest_cr0 -> "GUEST_CR0"
  | Guest_cr3 -> "GUEST_CR3"
  | Guest_cr4 -> "GUEST_CR4"
  | Guest_efer -> "GUEST_EFER"
  | Guest_gdtr_base -> "GUEST_GDTR_BASE"
  | Guest_idtr_base -> "GUEST_IDTR_BASE"
  | Guest_cs_base -> "GUEST_CS_BASE"
  | Guest_ss_base -> "GUEST_SS_BASE"
  | Guest_interruptibility -> "GUEST_INTERRUPTIBILITY"
  | Guest_activity_state -> "GUEST_ACTIVITY_STATE"
  | Host_rip -> "HOST_RIP"
  | Host_rsp -> "HOST_RSP"
  | Host_cr0 -> "HOST_CR0"
  | Host_cr3 -> "HOST_CR3"
  | Host_cr4 -> "HOST_CR4"
  | Host_efer -> "HOST_EFER"
  | Svt_visor -> "SVT_VISOR"
  | Svt_vm -> "SVT_VM"
  | Svt_nested -> "SVT_NESTED"

let equal a b = Int.equal (index a) (index b)
