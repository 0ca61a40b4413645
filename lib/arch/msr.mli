(** Model-specific registers the workloads and hypervisors touch. Every
    guest rdmsr/wrmsr traps, which is how timer re-arming
    (IA32_TSC_DEADLINE) becomes the MSR_WRITE exit traffic the paper
    profiles (§6.3.1, §6.3.3). *)

type t =
  | Ia32_tsc
  | Ia32_tsc_deadline
  | Ia32_apic_base
  | Ia32_efer
  | Ia32_sysenter_cs
  | Ia32_sysenter_esp
  | Ia32_sysenter_eip
  | Ia32_star
  | Ia32_lstar
  | Ia32_gs_base
  | Ia32_kernel_gs_base
  | Ia32_spec_ctrl
  | Ia32_pred_cmd
  | Other of int

(** A per-context MSR value file. *)
module File : sig
  type msr := t
  type t

  val create : unit -> t
  val read : t -> msr -> int64
  val write : t -> msr -> int64 -> unit
end
