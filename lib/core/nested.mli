(** The nested trap-handling protocol — the paper's core subject.

    One [t] serves one L2 vCPU. {!handle} executes the complete
    life-cycle of an L2 exit (Algorithm 1) under the run mode the path
    was created with:

    - {b Baseline}: full reflection with software context switches —
      exactly the sequence whose cost Table 1 breaks down;
    - {b SW SVt} (§5.2): the L0↔L1 world switch becomes a command-ring
      round trip to the SVt-thread on the SMT sibling, with the
      SVT_BLOCKED protocol (§5.3) servicing interrupts for L1 while L0
      blocks;
    - {b HW SVt} (§4): world switches become hardware-context stall/
      resume events and register save/restore becomes ctxtld/ctxtst;
    - {b HW full nesting}: the invasive alternative (§3) where hardware
      delivers L2 traps straight to L1;
    - {b OoH}: delegated exits enter L1 directly, residual ones reflect
      as under the baseline.

    Every nanosecond spent is charged to the vCPU's
    {!Svt_hyp.Breakdown} buckets, so Table 1 is a printout of this
    module's execution; {!handle} counts each exit there once
    ({!Svt_hyp.Breakdown.exits}). *)

type t

val create :
  ?injector:Svt_fault.Injector.t ->
  machine:Svt_hyp.Machine.t ->
  mode:Mode.t ->
  vcpu:Svt_hyp.Vcpu.t ->
  l1_vm:Svt_hyp.Vm.t ->
  script:Svt_hyp.L1_script.t ->
  unit ->
  t
(** Wire the path for one L2 vCPU: builds and initializes the
    vmcs01/vmcs12/vmcs02 triple (validated by the VM-entry checks),
    assigns hardware contexts per the §4 worked example, points the
    pointer fields of vmcs01' at pages of [l1_vm]'s address space, and —
    under SW SVt — allocates the command rings there. [injector]
    defaults to the inert injector; an active one arms the fault sites
    (corrupt-vmcs12 before the entry transform, the ring faults through
    the channel, the stuck-SVT_BLOCKED stall) and the stall watchdog. *)

val start : t -> unit
(** Spawn the SVt-thread process (SW SVt only; a no-op otherwise). *)

val handle : t -> Svt_hyp.Exit.info -> unit
(** Run one full episode for an L2 exit. Must be called from the vCPU's
    simulator process; returns when L2 resumes. VMX-instruction exits are
    handled by L0 directly; everything else reflects through L1. *)

val interrupt_for_l1 : t -> vector:int -> work:(unit -> unit) -> unit
(** An interrupt destined for L1 arriving while this vCPU runs L2: a full
    reflection episode whose L1-side effect is [work]. (When it lands in
    the middle of an SW SVt episode instead, the wait loop services it
    through the lighter SVT_BLOCKED path.) *)

val at_entry_boundary : t -> bool
(** Whether the vCPU is at (or within ~1 µs of) the end of an episode, so
    a pending vector can be injected on the upcoming VM entry without
    forcing a fresh exit. *)

(** {2 Introspection} *)

val blocked_injections : t -> int
(** SVT_BLOCKED events serviced while waiting on the SVt-thread (§5.3). *)

val vmcs12 : t -> Svt_vmcs.Vmcs.t
