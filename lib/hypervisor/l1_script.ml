(* What the L1 guest hypervisor's trap handler does for a reflected L2
   exit, read straight from the cost model's per-reason profile: half the
   handler's pure emulation work, its auxiliary traps into L0
   (vmread/vmwrite of non-shadowed vmcs01' fields — Algorithm 1 lines
   8–10), the semantic effect, then the remaining work. The effect sits
   between reads (inspecting the trapped state) and the tail (updating
   vmcs01', advancing the guest RIP). The trap paths run that sequence
   themselves, so no per-exit script is built. *)

module Time = Svt_engine.Time
module Exit_reason = Svt_arch.Exit_reason

type t = {
  cost : Svt_arch.Cost_model.t;
  shadow : Svt_vmcs.Shadow.t;
}

let create ?(shadow = Svt_vmcs.Shadow.hardware_shadowing_enabled) cost =
  { cost; shadow }

(* Alternate vmread/vmwrite for the aux traps, as a handler that first
   inspects exit state and then updates guest state would. *)
let aux_reason i = if i mod 2 = 0 then Exit_reason.Vmread else Exit_reason.Vmwrite

(* Without hardware VMCS shadowing, the guest-state and exit-information
   accesses that the shadow would have absorbed also trap (§2.1): the
   basic exit/entry bookkeeping of a handler touches about this many of
   them. *)
let unshadowed_extra_aux = 6

let aux_count t reason =
  let profile = Svt_arch.Cost_model.profile t.cost reason in
  if Svt_vmcs.Shadow.shadowed t.shadow Svt_vmcs.Field.Guest_rip then
    profile.l1_aux_exits
  else profile.l1_aux_exits + unshadowed_extra_aux

let head_work t reason =
  let profile = Svt_arch.Cost_model.profile t.cost reason in
  Time.of_ns (Time.to_ns profile.l1_pure / 2)

let tail_work t reason =
  let profile = Svt_arch.Cost_model.profile t.cost reason in
  Time.sub profile.l1_pure (head_work t reason)

(* Whether L0 reflects this exit to L1: only the VMX instructions are L1's
   own operations on its (emulated) virtualization hardware, which L0
   handles directly. Everything else — including interrupts destined for
   L1's virtual devices — goes through the full reflection protocol. *)
let reflects reason = not (Exit_reason.is_vmx_instruction reason)
