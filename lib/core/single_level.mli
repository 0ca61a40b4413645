(** Single-level trap handling: exits of a direct guest of L0.

    HW SVt collapses these switches into hardware-context switches too;
    the SW prototype leaves them unchanged (§5.2). *)

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
(** The total of the cost value {!handle} applies, for workload code
    charging guest-hypervisor overhead inside backend processes. *)
