(* The Out-of-Hypervisor delegation set (PAPERS.md: "Out of Hypervisor:
   When Nested Virtualization Becomes Practical").

   OoH takes the opposite trade to SVt: instead of accelerating the L0↔L1
   reflection, L0 delegates selected single-level virtualization features
   straight to L1 — the hardware delivers a delegated L2 exit into L1's
   handler with no L0 involvement and no VMCS transform, much like full
   architectural nesting but only for the delegation set. Everything else
   is *residual*: it reflects through L0 exactly as in the baseline, and
   L0 must additionally re-arm the delegation controls before L2 restarts.

   The split below follows the feature classes the OoH design can hand to
   a guest: CPU-local instruction emulation (cpuid, MSR accesses, control
   registers, TLB/cache maintenance, idle states) and the guest's own
   second-dimension paging (EPT faults and the misconfig doorbells built
   on them), plus the L2→L1 hypercall channel. What stays with L0 is what
   touches shared physical resources: real external interrupts and their
   APIC bookkeeping, port I/O that bounces through the user-level
   hypervisor, and L0's own preemption timer. The VMX instructions are
   neither — they are L1 operating its virtual VMX hardware and L0 handles
   them inline in every mode. *)

let delegated = function
  | Exit_reason.Cpuid | Exit_reason.Msr_read | Exit_reason.Msr_write
  | Exit_reason.Cr_access | Exit_reason.Dr_access | Exit_reason.Invlpg
  | Exit_reason.Rdtsc | Exit_reason.Hlt | Exit_reason.Mwait_exit
  | Exit_reason.Pause_exit | Exit_reason.Wbinvd | Exit_reason.Xsetbv
  | Exit_reason.Ept_violation | Exit_reason.Ept_misconfig
  | Exit_reason.Vmcall ->
      true
  | _ -> false (* interrupts, I/O, APIC, timers, VMX instructions *)
