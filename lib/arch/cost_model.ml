(* Timing model of the virtualization machinery.

   Every constant in this record is a cost the real machinery pays; the
   nested-trap protocol in [Svt_hyp.Nested] composes them mechanistically,
   so Table 1 and the SVt speedups are *outputs* of the simulation, not
   inputs. The [paper_machine] preset is calibrated so the baseline nested
   cpuid reproduces the paper's Table 1 breakdown
   (0.05 / 0.81 / 1.29 / 4.89 / 1.40 / 1.96 µs, total 10.40 µs); all other
   numbers then follow from which steps each mode eliminates.

   Times are nanoseconds ([Svt_engine.Time.t]). *)

module Time = Svt_engine.Time

(* Per-exit-reason handler behaviour. [l1_pure] is the guest hypervisor's
   emulation work proper; [l1_aux_exits] is how many times that handler
   traps back into L0 (vmread/vmwrite of non-shadowed VMCS fields, EPT
   management, APIC pokes — paper §2.2: "in practice this might happen
   multiple times"); [l0_pure] is the work L0 does when it handles the
   exit itself (single-level case, or L1-owned exits). *)
type profile = {
  l0_pure : Time.t;
  l1_pure : Time.t;
  l1_aux_exits : int;
  userspace : bool; (* needs a bounce to the user-level hypervisor (QEMU) *)
}

type t = {
  (* --- hardware trap/resume --- *)
  trap_hw : Time.t; (* pipeline flush + VMCS autosave on VM trap *)
  resume_hw : Time.t; (* VMCS autoload + redirect on VM resume *)
  l1_world_extra : Time.t;
  (* additional per-direction cost of entering/leaving the L1 *hypervisor*
     world (control registers, segment state, MSR switch) — why the paper's
     ④ (1.40 µs) exceeds ① (0.81 µs) *)
  thread_switch : Time.t; (* SVt stall/resume of a hardware context *)
  (* --- VMCS software machinery --- *)
  vmptrld : Time.t;
  transform_base : Time.t;
  transform_per_field : Time.t;
  l0_reflect_decision : Time.t;
  l0_inject_exit_info : Time.t;
  l0_emulate_vmentry : Time.t; (* handling L1's VMRESUME of L2 *)
  l0_emulate_aux : Time.t; (* handling one vmread/vmwrite-style aux exit *)
  (* context management folded into the L0 handler (paper Table 1 note):
     register/VMCS save-restore for the L2 world and for the L1 world *)
  l0_ctx_mgmt_l2 : Time.t;
  l0_ctx_mgmt_l1 : Time.t;
  ctx_mgmt_single : Time.t; (* same, single-level (L0↔L1) exits *)
  (* --- SVt hardware --- *)
  ctxt_reg_access : Time.t; (* one ctxtld/ctxtst *)
  ctxt_regs_per_switch : int; (* registers a handler actually touches *)
  (* --- SW SVt prototype --- *)
  ring_write : Time.t; (* post a command + payload into the shared ring *)
  ring_read : Time.t; (* consume a command *)
  mwait_wake : Time.t; (* monitor/mwait wake-up from C1 *)
  mutex_wake : Time.t; (* futex-style block/wake *)
  poll_check : Time.t; (* one polling iteration on the waiter *)
  sw_prepare_resume : Time.t; (* L0 work to restart L2 after CMD_VM_RESUME *)
  (* cache-line transfer for the ring, by placement *)
  line_transfer_smt : Time.t;
  line_transfer_core : Time.t;
  line_transfer_numa : Time.t;
  (* --- OoH delegation (Out of Hypervisor, PAPERS.md) --- *)
  ooh_delegated_dispatch : Time.t;
  (* hardware routing + L1-side dispatch of a delegated L2 exit: the
     delegation-table walk and the vectored delivery into L1's handler *)
  ooh_vmcs_access : Time.t;
  (* one L1 access to a delegated VMCS field — slower than a plain
     hardware VMCS access (the delegated-state indirection) but far
     cheaper than an auxiliary trap into L0 *)
  ooh_delegation_setup : Time.t;
  (* L0 re-arming the delegation controls after it intervened: paid once
     per residual exit (and per repaired delegation fault) before L2
     restarts *)
  (* --- devices --- *)
  vhost_kick : Time.t; (* host-side virtio notification processing *)
  vhost_wake : Time.t; (* scheduling latency of an idle vhost worker *)
  virtio_queue_op : Time.t; (* vring descriptor handling per request *)
  nic_wire_latency : Time.t; (* one-way propagation + switch + client stack *)
  nic_bandwidth_gbps : float;
  disk_base_latency : Time.t; (* ramfs-backed virtio disk service time *)
  disk_write_extra : Time.t; (* extra service time of writes (journaling) *)
  nested_disk_penalty : Time.t;
  (* extra backend latency when the guest's disk is itself a file on a
     virtual disk (L2's image on L1's virtio disk): L1's own submission
     exits and service *)
  (* --- guest software --- *)
  guest_syscall : Time.t; (* syscall + socket/block layer on the guest *)
  guest_cpuid : Time.t; (* native cpuid execution (Table 1 part ⓪) *)
  svt_sysreg_direct : Time.t option;
  (* Per-register trap-or-memory access under SVt: when the ISA keeps
     nested state in a memory-backed system-register image (ARM NV/VHE),
     the SVt service thread reads/writes that image directly instead of
     taking an auxiliary trap — [Some cost_of_one_access]. [None] on
     ISAs whose nested state is a cached VMCS (x86): there the SW SVt
     prototype leaves the aux-trap path untouched (§5.2). *)
  per_reason : Exit_reason.t -> profile;
}

let default_profile = { l0_pure = 300; l1_pure = 600; l1_aux_exits = 1; userspace = false }

(* Calibrated per-reason profiles. Aux-exit counts follow the paper's
   observations: cpuid is the best case with a single vmcs01' access
   (§2.3); I/O doorbells (EPT_MISCONFIG) make L1 walk rings and inject
   interrupts, trapping several times (§6.2 shows their handlers dominate
   L0 time). *)
let paper_profiles reason =
  let open Exit_reason in
  match reason with
  | Cpuid -> { l0_pure = 250; l1_pure = 900; l1_aux_exits = 1; userspace = false }
  | Msr_read -> { l0_pure = 250; l1_pure = 600; l1_aux_exits = 1; userspace = false }
  | Msr_write -> { l0_pure = 300; l1_pure = 700; l1_aux_exits = 6; userspace = false }
  | Ept_misconfig -> { l0_pure = 500; l1_pure = 1200; l1_aux_exits = 14; userspace = false }
  | Ept_violation -> { l0_pure = 800; l1_pure = 1500; l1_aux_exits = 11; userspace = false }
  | Io_instruction -> { l0_pure = 600; l1_pure = 1000; l1_aux_exits = 8; userspace = true }
  | Hlt -> { l0_pure = 300; l1_pure = 500; l1_aux_exits = 7; userspace = false }
  | External_interrupt -> { l0_pure = 400; l1_pure = 900; l1_aux_exits = 11; userspace = false }
  | Interrupt_window -> { l0_pure = 300; l1_pure = 600; l1_aux_exits = 8; userspace = false }
  | Eoi_induced | Apic_write | Apic_access ->
      { l0_pure = 250; l1_pure = 400; l1_aux_exits = 5; userspace = false }
  | Vmcall -> { l0_pure = 350; l1_pure = 500; l1_aux_exits = 0; userspace = false }
  | Preemption_timer -> { l0_pure = 300; l1_pure = 500; l1_aux_exits = 1; userspace = false }
  | r when is_vmx_instruction r ->
      (* These are the aux exits themselves; L0 handles them inline. *)
      { l0_pure = 250; l1_pure = 0; l1_aux_exits = 0; userspace = false }
  | _ -> default_profile

let paper_machine =
  {
    trap_hw = 405;
    resume_hw = 405;
    l1_world_extra = 295;
    thread_switch = 50;
    vmptrld = 300;
    transform_base = 295;
    transform_per_field = 20;
    l0_reflect_decision = 350;
    l0_inject_exit_info = 500;
    l0_emulate_vmentry = 900;
    l0_emulate_aux = 250;
    l0_ctx_mgmt_l2 = 1090;
    l0_ctx_mgmt_l1 = 1400;
    ctx_mgmt_single = 400;
    ctxt_reg_access = 4;
    ctxt_regs_per_switch = 25;
    ring_write = 200;
    ring_read = 100;
    mwait_wake = 950;
    mutex_wake = 2600;
    poll_check = 12;
    sw_prepare_resume = 300;
    line_transfer_smt = 25;
    line_transfer_core = 85;
    line_transfer_numa = 900;
    ooh_delegated_dispatch = 120;
    ooh_vmcs_access = 120;
    ooh_delegation_setup = 800;
    vhost_kick = 1500;
    vhost_wake = 1500;
    virtio_queue_op = 400;
    nic_wire_latency = 5_500;
    nic_bandwidth_gbps = 10.0;
    disk_base_latency = 3_000;
    disk_write_extra = 3_000;
    nested_disk_penalty = 4_000;
    guest_syscall = 1_800;
    guest_cpuid = 50;
    svt_sysreg_direct = None;
    per_reason = paper_profiles;
  }

(* --- ARM NV/VHE (the second backend; paper §7, PAPERS.md timing model) ---

   Nested state lives in a memory-backed system-register image (a
   VNCR-style page), not a hardware-cached VMCS. Consequences encoded
   below:
   - exception entry/ERET must save/restore the sysreg file in software
     (no VMCS autosave), so [trap_hw]/[resume_hw] and the world-switch
     extras are dearer than VMX's;
   - the vmcs12↔vmcs02 analogue is a memory-image copy with no cached
     read port, so the transform constants grow while the "vmptrld"
     analogue (re-pointing the VNCR page) shrinks to a register write;
   - under SVt the service thread accesses the memory image directly
     ([svt_sysreg_direct]), the per-register "memory" arm of the
     trap-or-memory access model — baseline L1 takes the "trap" arm for
     every access, which [Shadow.no_shadowing] inflates with the
     unshadowed extra aux traps. *)

let arm_profiles reason =
  let open Exit_reason in
  match reason with
  | Cpuid -> { l0_pure = 200; l1_pure = 850; l1_aux_exits = 1; userspace = false }
  | Msr_read -> { l0_pure = 220; l1_pure = 600; l1_aux_exits = 1; userspace = false }
  | Msr_write -> { l0_pure = 280; l1_pure = 700; l1_aux_exits = 6; userspace = false }
  | Ept_misconfig -> { l0_pure = 520; l1_pure = 1250; l1_aux_exits = 14; userspace = false }
  | Ept_violation -> { l0_pure = 850; l1_pure = 1600; l1_aux_exits = 11; userspace = false }
  | Io_instruction -> { l0_pure = 650; l1_pure = 1100; l1_aux_exits = 8; userspace = true }
  | Hlt -> { l0_pure = 280; l1_pure = 500; l1_aux_exits = 7; userspace = false }
  | External_interrupt -> { l0_pure = 380; l1_pure = 850; l1_aux_exits = 11; userspace = false }
  | Interrupt_window -> { l0_pure = 300; l1_pure = 600; l1_aux_exits = 8; userspace = false }
  | Eoi_induced | Apic_write | Apic_access ->
      { l0_pure = 230; l1_pure = 450; l1_aux_exits = 5; userspace = false }
  | Vmcall -> { l0_pure = 300; l1_pure = 450; l1_aux_exits = 0; userspace = false }
  | Preemption_timer -> { l0_pure = 300; l1_pure = 500; l1_aux_exits = 1; userspace = false }
  | r when is_vmx_instruction r ->
      (* EL2 sysreg maintenance from virtual EL2; L0 handles it inline. *)
      { l0_pure = 280; l1_pure = 0; l1_aux_exits = 0; userspace = false }
  | _ -> { l0_pure = 300; l1_pure = 650; l1_aux_exits = 1; userspace = false }

let arm_machine =
  {
    trap_hw = 520;
    resume_hw = 520;
    l1_world_extra = 430;
    thread_switch = 50;
    vmptrld = 140;
    transform_base = 380;
    transform_per_field = 30;
    l0_reflect_decision = 380;
    l0_inject_exit_info = 560;
    l0_emulate_vmentry = 1150;
    l0_emulate_aux = 300;
    l0_ctx_mgmt_l2 = 1250;
    l0_ctx_mgmt_l1 = 1600;
    ctx_mgmt_single = 460;
    ctxt_reg_access = 4;
    ctxt_regs_per_switch = 25;
    ring_write = 200;
    ring_read = 100;
    mwait_wake = 900; (* WFE wake from the event stream *)
    mutex_wake = 2600;
    poll_check = 12;
    sw_prepare_resume = 320;
    line_transfer_smt = 25;
    line_transfer_core = 85;
    line_transfer_numa = 900;
    ooh_delegated_dispatch = 140;
    ooh_vmcs_access = 60; (* a plain load from the VNCR page *)
    ooh_delegation_setup = 700;
    vhost_kick = 1500;
    vhost_wake = 1500;
    virtio_queue_op = 400;
    nic_wire_latency = 5_500;
    nic_bandwidth_gbps = 10.0;
    disk_base_latency = 3_000;
    disk_write_extra = 3_000;
    nested_disk_penalty = 4_000;
    guest_syscall = 1_800;
    guest_cpuid = 45;
    svt_sysreg_direct = Some 60;
    per_reason = arm_profiles;
  }

(* --- named constants: costs with one value on every machine (see the
   interface for why they are not fields), each with its source --- *)

(* a native privileged op other than cpuid: under Table 1's ⓪ (0.05 µs) *)
let native_privileged_op = Time.of_ns 40

(* an L1 VMCS access under full nesting, plain hardware: Table 1's ⓪ *)
let full_nesting_aux_access = Time.of_ns 50

(* Assumed, with no figure in the paper: a [userspace] exit's round trip
   through QEMU on top of the kernel handler (every port-I/O exit) *)
let userspace_bounce = Time.of_us 4

(* Assumed: L1 correcting vmcs01' after a failed VM entry (§2.1), and L1
   repairing a field after an OoH delegation fault; fault runs only *)
let l1_entry_fail_fixup = Time.of_us 2
let l1_delegation_fault_fixup = Time.of_us 1

(* Assumed: §6.1 ranks the wait mechanisms but gives no entry cost;
   arming monitor/mwait, and a futex wait's bookkeeping and syscall *)
let mwait_enter = Time.of_ns 60
let mutex_enter = Time.of_ns 250

(* Assumed: one step of an idle vhost worker's poll window before it
   parks (virtio-blk and virtio-net) *)
let vhost_poll_interval = Time.of_us 5

(* Serialization delay of [bytes] of payload on the NIC wire, including
   per-MTU framing overhead (Ethernet + IP + TCP headers): large TCP
   streams top out at ~94% of the 10 Gb line rate, the paper's 9387 Mb/s
   regime. *)
let mss = 1448
let frame_overhead = 78 (* eth+ip+tcp headers, preamble, IFG *)

let wire_serialize t ~bytes =
  let frames = max 1 ((bytes + mss - 1) / mss) in
  let on_wire = bytes + (frames * frame_overhead) in
  let bits = float_of_int (on_wire * 8) in
  Time.of_ns (int_of_float (bits /. t.nic_bandwidth_gbps +. 0.5))

let profile t reason = t.per_reason reason
