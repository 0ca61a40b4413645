(** The Out-of-Hypervisor delegation set (PAPERS.md).

    Under [Mode.Ooh], L0 delegates selected single-level virtualization
    features to L1: a delegated L2 exit is delivered straight into L1's
    handler — no L0 reflection, no VMCS transform. Residual exits reflect
    through L0 as in the baseline and pay a delegation re-arm on top. *)

val delegated : Exit_reason.t -> bool
(** Whether OoH hardware delivers this L2 exit straight to L1: CPU-local
    emulation (cpuid, MSRs, CR/DR, invlpg, rdtsc, idle states), the
    guest's own EPT handling (violation + misconfig doorbells), and the
    L2→L1 hypercall. *)
