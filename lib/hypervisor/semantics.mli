(** Architectural semantics of emulated operations — what the handling
    hypervisor actually {e does}, shared by every run mode and by both
    the single-level and nested paths. SVt only changes how control and
    state move, never what the emulation computes (§3). *)

val tsc_of_time : Svt_engine.Time.t -> int64
(** The simulated TSC runs at 1 GHz: ticks == nanoseconds. *)

val apply : Vcpu.t -> Exit.action -> unit
(** Complete the operation: answer CPUID from the VM's masked view, read/
    write MSRs (arming the LAPIC deadline on IA32_TSC_DEADLINE), dispatch
    MMIO to the owning device, EOI the LAPIC. No port-I/O device or
    hypercall service is modelled: a PIO read answers 0, a PIO write is
    dropped, and a vmcall's reply stays [None]. *)
