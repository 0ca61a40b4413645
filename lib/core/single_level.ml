(* Single-level trap handling: exits from a direct guest of L0 (an L1-leaf
   guest like Figure 6's "L1" bar, or L1's own device interactions), and
   the lightweight auxiliary exits a guest hypervisor takes while handling
   a nested trap (vmread/vmwrite of non-shadowed vmcs01' fields).

   Under HW SVt the L0↔L1 world switch collapses into a hardware-context
   switch plus a few cross-context register accesses; the software-only
   prototype does not change this path (§5.2 accelerates only the nested
   L0↔L1 reflection). *)

module Time = Svt_engine.Time
module Breakdown = Svt_hyp.Breakdown
module Cost_model = Svt_arch.Cost_model
module Smt_core = Svt_arch.Smt_core

(* The auxiliary-exit fast path: trap, emulate in L0's inner loop, resume.
   No full context management — KVM's emulation loop keeps the world
   loaded. Charged to [bucket] (the paper folds these into ⑤ when they
   happen during L1's nested-trap handling). *)
let aux_round_trip ~(cost : Cost_model.t) ~(mode : Mode.t) ~breakdown ~bucket
    ~core ~hypervisor_ctx ~guest_ctx =
  match mode with
  | Mode.Hw_svt ->
      Smt_core.activate core hypervisor_ctx;
      Breakdown.charge breakdown bucket cost.thread_switch;
      Breakdown.charge breakdown bucket cost.l0_emulate_aux;
      Smt_core.activate core guest_ctx;
      Breakdown.charge breakdown bucket cost.thread_switch
  | Mode.Sw_svt _ when cost.svt_sysreg_direct <> None ->
      (* The trap-or-memory access model (ARM NV/VHE): the SVt service
         thread reads/writes the memory-backed sysreg image directly, so
         what would have been an auxiliary trap is a plain access. *)
      Breakdown.charge breakdown bucket
        (Option.get cost.svt_sysreg_direct)
  | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh ->
      Breakdown.charge breakdown bucket cost.trap_hw;
      Breakdown.charge breakdown bucket cost.l0_emulate_aux;
      Breakdown.charge breakdown bucket cost.resume_hw

(* A full single-level exit of an L1-leaf guest: trap into L0, context
   management, the L0 handler (which applies the semantics), resume. *)
let handle ~(cost : Cost_model.t) ~(mode : Mode.t) (vcpu : Svt_hyp.Vcpu.t)
    (info : Svt_hyp.Exit.info) =
  let probe = Svt_hyp.Machine.probe (Svt_hyp.Vcpu.machine vcpu) in
  Svt_obs.Probe.wrap probe Svt_obs.Span.Vm_exit
    ~vcpu:(Svt_hyp.Vcpu.index vcpu)
    ~level:(Svt_hyp.Vm.level (Svt_hyp.Vcpu.vm vcpu))
    ~core:(Svt_hyp.Vcpu.core_id vcpu) ~ctx:(Svt_hyp.Vcpu.hw_ctx vcpu)
    ~tags:(fun () ->
      [ ("reason", Svt_arch.Exit_reason.name info.reason);
        ("mode", Mode.name mode) ])
  @@ fun () ->
  let bd = Svt_hyp.Vcpu.breakdown vcpu in
  let profile = Cost_model.profile cost info.reason in
  Breakdown.count_exit bd;
  (match mode with
  | Mode.Hw_svt ->
      let core = Svt_hyp.Vcpu.core vcpu in
      Smt_core.vm_trap core;
      Breakdown.charge bd Breakdown.Switch_l2_l0 cost.thread_switch;
      Breakdown.charge bd Breakdown.Ctxt_access
        (Time.scale cost.ctxt_reg_access
           (float_of_int cost.ctxt_regs_per_switch));
      Breakdown.charge bd Breakdown.L0_handler profile.l0_pure;
      Svt_hyp.Semantics.apply vcpu info.action;
      Smt_core.vm_resume core;
      Breakdown.charge bd Breakdown.Switch_l2_l0 cost.thread_switch
  | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh ->
      Breakdown.charge bd Breakdown.Switch_l2_l0 cost.trap_hw;
      Breakdown.charge bd Breakdown.L0_handler cost.ctx_mgmt_single;
      Breakdown.charge bd Breakdown.L0_handler profile.l0_pure;
      Svt_hyp.Semantics.apply vcpu info.action;
      Breakdown.charge bd Breakdown.Switch_l2_l0 cost.resume_hw);
  if profile.userspace then
    (* Bounce through the user-level hypervisor (QEMU): an extra host
       round trip on top of the kernel handler. *)
    Breakdown.charge bd Breakdown.L0_handler (Time.of_us 4)

(* Cost of one full single-level exit, for workload code that charges
   guest-hypervisor overhead inside backend processes (vhost threads in
   L1 kicking their L0-provided devices). *)
let episode_cost ~(cost : Cost_model.t) ~(mode : Mode.t) reason =
  let profile = Cost_model.profile cost reason in
  let base =
    match mode with
    | Mode.Hw_svt ->
        Time.add
          (Time.add (Time.scale cost.thread_switch 2.0) profile.l0_pure)
          (Time.scale cost.ctxt_reg_access
             (float_of_int cost.ctxt_regs_per_switch))
    | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh ->
        Time.add
          (Time.add cost.trap_hw cost.resume_hw)
          (Time.add cost.ctx_mgmt_single profile.l0_pure)
  in
  if profile.userspace then Time.add base (Time.of_us 4) else base
