(* Single-level trap handling: exits from a direct guest of L0 (an L1-leaf
   guest like Figure 6's "L1" bar, or L1's own device interactions).

   Under HW SVt the L0↔L1 world switch collapses into a hardware-context
   switch plus a few cross-context register accesses; the software-only
   prototype does not change this path (§5.2 accelerates only the nested
   L0↔L1 reflection). *)

module Time = Svt_engine.Time
module Breakdown = Svt_hyp.Breakdown
module Cost = Svt_hyp.Cost
module Cost_model = Svt_arch.Cost_model
module Smt_core = Svt_arch.Smt_core

(* A full single-level exit's cost: trap into L0, context management and
   the L0 handler [before] the semantics apply, the resume [after] them,
   plus a bounce through the user-level hypervisor (QEMU) for exits whose
   profile demands one. Under HW SVt ([hw]) the trap and resume are
   hardware-context switches and the handler reaches the guest's
   registers through ctxtld/ctxtst. [tags] is the [cost] tag. *)
type episode = { hw : bool; before : Cost.t; after : Cost.t; tags : (string * string) list }

let episodes ~hw before after =
  let episode after = { hw; before; after; tags = [ Cost.tag (before @ after) ] } in
  (episode after, episode (after @ [ Cost.charge L0_handler "userspace_bounce" ]))

let hw, hw_bounce =
  episodes ~hw:true
    Cost.[ charge Switch_l2_l0 "thread_switch";
           charge Ctxt_access "ctxt_reg_access*ctxt_regs_per_switch";
           charge L0_handler "l0_pure" ]
    [ Cost.charge Switch_l2_l0 "thread_switch" ]

let trap, trap_bounce =
  episodes ~hw:false
    Cost.[ charge Switch_l2_l0 "trap_hw"; charge L0_handler "ctx_mgmt_single";
           charge L0_handler "l0_pure" ]
    [ Cost.charge Switch_l2_l0 "resume_hw" ]

let episode (mode : Mode.t) (profile : Cost_model.profile) =
  match mode with
  | Mode.Hw_svt -> if profile.userspace then hw_bounce else hw
  | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh ->
      if profile.userspace then trap_bounce else trap

let handle ~(cost : Cost_model.t) ~(mode : Mode.t) (vcpu : Svt_hyp.Vcpu.t)
    (info : Svt_hyp.Exit.info) =
  let probe = Svt_hyp.Machine.probe (Svt_hyp.Vcpu.machine vcpu) in
  Svt_obs.Probe.wrap probe Svt_obs.Span.Vm_exit
    ~vcpu:(Svt_hyp.Vcpu.index vcpu)
    ~level:(Svt_hyp.Vm.level (Svt_hyp.Vcpu.vm vcpu))
    ~core:(Svt_hyp.Vcpu.core_id vcpu) ~ctx:(Svt_hyp.Vcpu.hw_ctx vcpu)
    ~tags:(fun () ->
      ("reason", Svt_arch.Exit_reason.name info.reason)
      :: ("mode", Mode.name mode)
      :: (episode mode (Cost_model.profile cost info.reason)).tags)
  @@ fun () ->
  let bd = Svt_hyp.Vcpu.breakdown vcpu in
  let profile = Cost_model.profile cost info.reason in
  let e = episode mode profile in
  Breakdown.count_exit bd;
  if e.hw then Smt_core.vm_trap (Svt_hyp.Vcpu.core vcpu);
  Cost.apply bd cost profile 0 e.before;
  Svt_hyp.Semantics.apply vcpu info.action;
  if e.hw then Smt_core.vm_resume (Svt_hyp.Vcpu.core vcpu);
  Cost.apply bd cost profile 0 e.after

(* Cost of one full single-level exit, for workload code that charges
   guest-hypervisor overhead inside backend processes (vhost threads in
   L1 kicking their L0-provided devices): the total of [handle]'s value. *)
let episode_cost ~(cost : Cost_model.t) ~(mode : Mode.t) reason =
  let profile = Cost_model.profile cost reason in
  let e = episode mode profile in
  Time.add (Cost.total cost profile 0 e.before) (Cost.total cost profile 0 e.after)
