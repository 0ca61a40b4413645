(* Architecture backends: the ISA-specific surface of the stack, one
   [match] on the kind per fact — the exit-reason spelling, the
   calibrated context-switch cost table and the capability flags.
   x86/VMX keeps nested state in a hardware-cached VMCS that shadowing can
   absorb accesses to; ARM NV/VHE keeps it in memory-backed system
   registers (a VNCR-style page), so there is nothing for a shadow VMCS to
   cache and every non-redirected access from virtual EL2 traps.

   The [kind] string table lives here, next to [Svt_core.Mode]'s, and is
   identity-bearing the same way: the spellings feed [Spec.canonical_key]
   (where the default arch is elided so every existing x86 run_id
   survives), the ledger, the CLI and the fuzzer labels. *)

type kind = X86 | Arm

(* ---- the canonical string table (see Svt_core.Mode) ------------------- *)

let to_string = function X86 -> "x86" | Arm -> "arm"

let of_string = function
  | "x86" | "x86_64" | "vmx" | "intel" -> Ok X86
  | "arm" | "arm64" | "aarch64" | "nv" -> Ok Arm
  | s -> Error (Printf.sprintf "unknown arch %S" s)

let all = [ X86; Arm ]
let default = X86
let equal = ( = )

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

let cost_of = function
  | X86 -> Cost_model.paper_machine
  | Arm -> Cost_model.arm_machine

let exit_name = function X86 -> Exit_reason.name | Arm -> arm_exit_name

let display_name = function X86 -> "x86/VMX" | Arm -> "ARM NV/VHE"

(* x86 caches nested state in a shadow-able VMCS; ARM's is a plain
   memory image, so there is no shadow for HW SVt's contexts to extend. *)
let has_shadow_vmcs = function X86 -> true | Arm -> false
let has_hw_svt = has_shadow_vmcs
