(** Timing model of the virtualization machinery.

    Every constant is a cost the real machinery pays; the trap paths in
    [Svt_core] compose them mechanistically, so the paper's Table 1 and
    the SVt speedups are {e outputs} of the simulation, not inputs. The
    {!paper_machine} preset is calibrated so the baseline nested cpuid
    reproduces Table 1 (0.05/0.81/1.29/4.89/1.40/1.96 µs); everything
    else follows from which steps each run mode eliminates.

    Every field is read by the simulation. Interrupt delivery and EOI
    have no constants of their own: they cost what the external-interrupt
    and EOI-induced exits cost ([per_reason]). A request's size enters
    only through [nic_bandwidth_gbps]; disk service time does not depend
    on it.

    Times are nanoseconds ({!Svt_engine.Time.t}). *)

(** Per-exit-reason handler behaviour. [l1_pure] is the guest
    hypervisor's emulation work proper; [l1_aux_exits] is how many times
    that handler traps back into L0 (§2.2: "in practice this might happen
    multiple times" — I/O handlers take many); [l0_pure] is L0's own work
    when it handles the exit; [userspace] marks exits that bounce through
    the user-level hypervisor (QEMU). *)
type profile = {
  l0_pure : Svt_engine.Time.t;
  l1_pure : Svt_engine.Time.t;
  l1_aux_exits : int;
  userspace : bool;
}

type t = {
  trap_hw : Svt_engine.Time.t;
      (** pipeline flush + VMCS autosave on VM trap *)
  resume_hw : Svt_engine.Time.t;
  l1_world_extra : Svt_engine.Time.t;
      (** per-direction extra for entering/leaving the L1 {e hypervisor}
          world — why the paper's ④ (1.40 µs) exceeds ① (0.81 µs) *)
  thread_switch : Svt_engine.Time.t;  (** SVt hardware-context stall/resume *)
  vmptrld : Svt_engine.Time.t;
  transform_base : Svt_engine.Time.t;
  transform_per_field : Svt_engine.Time.t;
  l0_reflect_decision : Svt_engine.Time.t;
  l0_inject_exit_info : Svt_engine.Time.t;
  l0_emulate_vmentry : Svt_engine.Time.t;
  l0_emulate_aux : Svt_engine.Time.t;
  l0_ctx_mgmt_l2 : Svt_engine.Time.t;
      (** context management folded into ③ for the L2 world (Table 1's
          footnote) *)
  l0_ctx_mgmt_l1 : Svt_engine.Time.t;
  ctx_mgmt_single : Svt_engine.Time.t;
  ctxt_reg_access : Svt_engine.Time.t;  (** one ctxtld/ctxtst *)
  ctxt_regs_per_switch : int;
  ring_write : Svt_engine.Time.t;
  ring_read : Svt_engine.Time.t;
  mwait_wake : Svt_engine.Time.t;
  mutex_wake : Svt_engine.Time.t;
  poll_check : Svt_engine.Time.t;
  sw_prepare_resume : Svt_engine.Time.t;
  line_transfer_smt : Svt_engine.Time.t;
  line_transfer_core : Svt_engine.Time.t;
  line_transfer_numa : Svt_engine.Time.t;
  ooh_delegated_dispatch : Svt_engine.Time.t;
      (** hardware routing + L1 dispatch of an OoH-delegated L2 exit *)
  ooh_vmcs_access : Svt_engine.Time.t;
      (** one L1 access to an OoH-delegated VMCS field (no trap) *)
  ooh_delegation_setup : Svt_engine.Time.t;
      (** L0 re-arming the OoH delegation controls after a residual exit
          or a repaired delegation fault *)
  vhost_kick : Svt_engine.Time.t;
  vhost_wake : Svt_engine.Time.t;
  virtio_queue_op : Svt_engine.Time.t;
  nic_wire_latency : Svt_engine.Time.t;
  nic_bandwidth_gbps : float;
  disk_base_latency : Svt_engine.Time.t;
  disk_write_extra : Svt_engine.Time.t;
  nested_disk_penalty : Svt_engine.Time.t;
  guest_syscall : Svt_engine.Time.t;
  guest_cpuid : Svt_engine.Time.t;
  svt_sysreg_direct : Svt_engine.Time.t option;
      (** per-register trap-or-memory access under SVt: [Some c] when
          the ISA keeps nested state in a memory-backed sysreg image the
          SVt service thread can access directly at cost [c] (ARM
          NV/VHE); [None] when it is a cached VMCS and the aux-trap path
          stands (x86, §5.2) *)
  per_reason : Exit_reason.t -> profile;
}

val paper_profiles : Exit_reason.t -> profile
(** The calibrated per-reason profiles of {!paper_machine}. *)

val paper_machine : t
(** Calibrated against the paper's Table 1 and §6.1 findings. *)

val arm_machine : t
(** ARM NV/VHE: nested state in memory-backed system registers (no
    VMCS caching, §7), dearer exception-based world switches, memory
    transforms, and direct sysreg-image access under SVt
    ([svt_sysreg_direct]). *)

val transform_cost : t -> fields:int -> Svt_engine.Time.t

val wire_serialize : t -> bytes:int -> Svt_engine.Time.t
(** Serialization of [bytes] of payload on the NIC wire, including
    per-MSS framing (large TCP streams top out near 94 % of line rate —
    the paper's 9387 Mb/s regime). *)

val profile : t -> Exit_reason.t -> profile
