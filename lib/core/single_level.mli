(** Single-level trap handling: exits of a direct guest of L0, and the
    lightweight auxiliary exits a guest hypervisor takes while handling a
    nested trap (vmread/vmwrite of non-shadowed vmcs01' fields).

    HW SVt collapses these switches into hardware-context switches too;
    the SW prototype leaves them unchanged (§5.2). *)

val aux_round_trip :
  cost:Svt_arch.Cost_model.t ->
  mode:Mode.t ->
  breakdown:Svt_hyp.Breakdown.t ->
  bucket:Svt_hyp.Breakdown.bucket ->
  core:Svt_arch.Smt_core.t ->
  hypervisor_ctx:int ->
  guest_ctx:int ->
  unit
(** One auxiliary L1→L0 round trip (trap, emulate in L0's inner loop,
    resume), charged to [bucket] — the paper folds these into part ⑤. *)

val handle :
  cost:Svt_arch.Cost_model.t ->
  mode:Mode.t ->
  Svt_hyp.Vcpu.t ->
  Svt_hyp.Exit.info ->
  unit
(** A full single-level exit: trap into L0, context management, the L0
    handler (applying the semantics), resume — plus a userspace (QEMU)
    bounce for exit reasons whose profile demands one. *)

val episode_cost :
  cost:Svt_arch.Cost_model.t ->
  mode:Mode.t ->
  Svt_arch.Exit_reason.t ->
  Svt_engine.Time.t
(** The cost of one such exit, for workload code charging guest-
    hypervisor overhead inside backend processes. *)
