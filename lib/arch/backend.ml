(* Architecture backends: the ISA-specific surface of the stack behind a
   first-class module. A backend bundles the exit-reason spelling, the
   calibrated context-switch cost table, and the nested-state model —
   x86/VMX keeps nested state in a hardware-cached VMCS that shadowing can
   absorb accesses to; ARM NV/VHE keeps it in memory-backed system
   registers (a VNCR-style page), so there is nothing for a shadow VMCS to
   cache and every non-redirected access from virtual EL2 traps.

   The [kind] string table lives here, next to [Svt_core.Mode]'s, and is
   identity-bearing the same way: the spellings feed [Spec.canonical_key]
   (where the default arch is elided so every existing x86 run_id
   survives), the ledger, the CLI and the fuzzer labels. *)

type kind = X86 | Arm

(* How a guest hypervisor's nested state is materialized. *)
type state_model =
  | Cached_vmcs (* hardware-cached VMCS, shadow-able (Intel VMX) *)
  | Memory_sysregs (* memory-backed system-register image (ARM NV/VHE) *)

(* ---- the canonical string table (see Svt_core.Mode) ------------------- *)

let to_string = function X86 -> "x86" | Arm -> "arm"

let of_string = function
  | "x86" | "x86_64" | "vmx" | "intel" -> Ok X86
  | "arm" | "arm64" | "aarch64" | "nv" -> Ok Arm
  | s -> Error (Printf.sprintf "unknown arch %S" s)

let all = [ X86; Arm ]
let default = X86
let equal = ( = )
let compare = Stdlib.compare
let pp ppf k = Fmt.string ppf (to_string k)

(* ---- the backend interface -------------------------------------------- *)

module type S = sig
  val kind : kind
  val display_name : string
  val nested_state : state_model

  val has_shadow_vmcs : bool
  (** Whether hardware can absorb L1's nested-state accesses into a
      shadow structure without trapping. *)

  val has_hw_svt : bool
  (** Whether the HW SVt design point exists on this ISA: its per-level
      hardware contexts extend the VMCS-caching machinery, so an ISA
      whose nested state is a plain memory image has no shadow state for
      the contexts to multiplex. *)

  val cost : Cost_model.t
  val exit_name : Exit_reason.t -> string
  val world_switch : string
  (** How control crosses privilege worlds, for table captions. *)
end

type t = (module S)

module X86_backend : S = struct
  let kind = X86
  let display_name = "x86/VMX"
  let nested_state = Cached_vmcs
  let has_shadow_vmcs = true
  let has_hw_svt = true
  let cost = Cost_model.paper_machine
  let exit_name = Exit_reason.name
  let world_switch = "vm-entry/vm-exit"
end

(* ARM spellings of the modeled events. Display-only: metric keys and
   ledger rows keep [Exit_reason.name] so x86 artifacts stay byte-stable;
   these appear in the per-exit tables and reports. *)
let arm_exit_name =
  let open Exit_reason in
  function
  | Exception_nmi -> "SERROR"
  | External_interrupt -> "IRQ"
  | Interrupt_window -> "VIRQ_PENDING"
  | Cpuid -> "ID_REG_TRAP"
  | Hlt -> "WFI"
  | Invlpg -> "TLBI"
  | Rdtsc -> "CNTVCT_TRAP"
  | Vmcall -> "HVC"
  | Vmclear -> "EL2_STATE_FLUSH"
  | Vmlaunch -> "ERET_ENTRY"
  | Vmptrld -> "VNCR_SWITCH"
  | Vmptrst -> "VNCR_READ"
  | Vmread -> "EL2_SYSREG_READ"
  | Vmresume -> "ERET_RESUME"
  | Vmwrite -> "EL2_SYSREG_WRITE"
  | Vmxoff -> "HCR_NV_OFF"
  | Vmxon -> "HCR_NV_ON"
  | Cr_access -> "SCTLR_TRAP"
  | Dr_access -> "DBG_TRAP"
  | Io_instruction -> "MMIO_EMUL"
  | Msr_read -> "MRS_TRAP"
  | Msr_write -> "MSR_TRAP"
  | Mwait_exit -> "WFE"
  | Pause_exit -> "YIELD"
  | Ept_violation -> "STAGE2_ABORT"
  | Ept_misconfig -> "STAGE2_MMIO"
  | Invept -> "TLBI_S2"
  | Preemption_timer -> "VTIMER"
  | Apic_access -> "GIC_ACCESS"
  | Apic_write -> "GIC_WRITE"
  | Eoi_induced -> "GIC_EOI"
  | Wbinvd -> "DC_CIVAC"
  | Xsetbv -> "FPSIMD_TRAP"

module Arm_backend : S = struct
  let kind = Arm
  let display_name = "ARM NV/VHE"
  let nested_state = Memory_sysregs
  let has_shadow_vmcs = false
  let has_hw_svt = false
  let cost = Cost_model.arm_machine
  let exit_name = arm_exit_name
  let world_switch = "eret/exception"
end

let of_kind : kind -> t = function
  | X86 -> (module X86_backend)
  | Arm -> (module Arm_backend)

let cost_of k =
  let (module B) = of_kind k in
  B.cost

let exit_name k r =
  let (module B) = of_kind k in
  B.exit_name r

let display_name k =
  let (module B) = of_kind k in
  B.display_name

let has_shadow_vmcs k =
  let (module B) = of_kind k in
  B.has_shadow_vmcs

let has_hw_svt k =
  let (module B) = of_kind k in
  B.has_hw_svt

let nested_state_of k =
  let (module B) = of_kind k in
  B.nested_state
